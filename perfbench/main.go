// Command perfbench is the REM benchmark. It runs one named workload
// from a workload seed, checks every output, and prints one JSON line
// of end-to-end metrics (or, with --trace 1, of per-layer metrics) as
// the last line of standard output. perfbench/run.sh builds it and
// remserve from source and runs it from the repository root:
//
//	bash perfbench/run.sh --workload fleet_long --seed 7 --seconds 20 --trace 0
//
// Every workload pass runs in a fresh child process of this binary, so
// heap and GC state never carry over from one pass to the next. See
// README.md for why each workload exists and which layer metric should
// move which end-to-end metric.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// passResult is what one child process reports for one pass.
type passResult struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Traced    bool     `json:"traced"`
	Spec      any      `json:"spec,omitempty"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	// Digests are sha256 sums of the pass's outputs; every pass of one
	// workload and seed must produce the same ones.
	Digests map[string]string  `json:"digests,omitempty"`
	E2E     map[string]float64 `json:"e2e"`
	// Samples are per-operation figures the parent reports with their
	// counts (serve_mixed's per-class latencies, set-up repeats).
	Samples map[string][]float64 `json:"samples,omitempty"`
	Layer   map[string]float64   `json:"layer,omitempty"`
	Spans   []span               `json:"spans,omitempty"`
	// ProcWall is the child's wall time from spawn to exit, filled in by
	// the parent.
	ProcWall float64 `json:"proc_wall_s"`
}

func newPassResult(workload string, seed int64, traced bool, spec any) *passResult {
	return &passResult{
		Workload: workload, Seed: seed, Traced: traced, Spec: spec,
		Digests: map[string]string{}, E2E: map[string]float64{}, Layer: map[string]float64{},
	}
}

func (p *passResult) fail(format string, args ...any) {
	p.Failed++
	p.Errors = append(p.Errors, fmt.Sprintf(format, args...))
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames))
		seed     = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 20, "how long one run measures")
		traceOn  = flag.Int("trace", 0, "1 runs the traced per-layer ladder instead of the timed run")
		buildDir = flag.String("build-dir", ".bench_build", "directory holding bin/remserve, scratch files and results")

		pass    = flag.String("pass", "", "internal: run one pass in this process and print its result")
		traced  = flag.Bool("traced", false, "internal: record spans in this pass")
		spawned = flag.Int64("spawned", 0, "internal: unix nanoseconds at which the parent spawned this pass")
		pairs   = flag.Int("pairs", 1, "internal: local/sharded pairs each serve_mixed client runs")
		setups  = flag.Int("setups", 1, "internal: serve_mixed set-ups in this pass")
	)
	flag.Parse()
	remserve := filepath.Join(*buildDir, "bin", "remserve")
	if *pass != "" {
		if err := runPass(*pass, *seed, *traced, time.Unix(0, *spawned), remserve, *buildDir, *pairs, *setups); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", *pass+":", err)
			os.Exit(1)
		}
		return
	}
	if !knownWorkload(*workload) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", *workload, workloadNames)
		os.Exit(2)
	}
	if *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	b := &bench{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *traceOn == 1, buildDir: *buildDir, remserve: remserve,
	}
	if err := b.run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runPass is the child side: it runs one pass and prints its result as
// one JSON line.
func runPass(name string, seed int64, traced bool, spawned time.Time, remserve, buildDir string, pairs, setups int) error {
	ctx := context.Background()
	var tr *tracer
	if traced {
		tr = newTracer(name + "-" + strconv.FormatInt(seed, 10))
	}
	var pr *passResult
	var err error
	switch name {
	case "fleet_wide", "fleet_long":
		pr, err = fleetPass(ctx, name, seed, tr)
	case "paper_quick", "paper_first":
		pr, err = paperPass(seed, spawned, name == "paper_first", tr)
	case "serve_mixed":
		dir := filepath.Join(buildDir, "tmp", fmt.Sprintf("serve-%d-%d", os.Getpid(), time.Now().UnixNano()))
		pr, err = servePass(ctx, seed, remserve, dir, setups, pairs, tr)
		if rmErr := os.RemoveAll(dir); err == nil && rmErr != nil {
			err = rmErr
		}
	case "probes":
		pr, err = probesPass(ctx, seed, tr)
	default:
		err = fmt.Errorf("unknown pass")
	}
	if err != nil {
		return err
	}
	pr.Spans = tr.all()
	return json.NewEncoder(os.Stdout).Encode(pr)
}
