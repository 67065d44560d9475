#!/usr/bin/env bash
# Builds the REM benchmark and remserve from source, then runs the
# benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload fleet_wide --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything it builds or writes
# (Go build cache, binaries, scratch files, results, traces) stays in
# .bench_build under the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0 GOPROXY=off

# With telemetry on (the default "local" mode) every go command forks a
# detached upload child that outlives it. Turning telemetry off in the
# private config dir above keeps the go commands below from starting one;
# "go telemetry off" itself never starts it. Go before 1.23 has neither.
go telemetry off >/dev/null 2>&1 || true

# Build output goes to stderr: the last line of stdout is the result.
go build -o "$out/bin/remserve" ./cmd/remserve >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -build-dir "$out" "$@"
