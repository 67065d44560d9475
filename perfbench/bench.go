package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

var workloadNames = []string{"fleet_wide", "fleet_long", "serve_mixed", "paper_quick"}

func knownWorkload(w string) bool {
	for _, n := range workloadNames {
		if n == w {
			return true
		}
	}
	return false
}

// metric is one reported figure, its unit and which way is better.
type metric struct{ name, unit, better string }

// endToEnd are the figures a user of each workload sees; README.md
// defines each one per workload.
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"first_progress_s", "s", "lower"},
	{"run_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"runs_per_s", "1/s", "higher"},
}

// servePairsPerSecond sizes serve_mixed's closed loop: each client runs
// this many local/sharded pairs per second of --seconds, which takes
// about that long on a 2-core Xeon. A fixed count, not a deadline, so
// every run does the same work and the coordinator, which keeps every
// run it has seen, ends at the same size.
const servePairsPerSecond = 1.5

// serveLadderPairs is each client's pair count in a traced run's
// serve_mixed pass: a few dozen runs per class.
const serveLadderPairs = 6

// setupRepeats is how many times a timed serve_mixed or paper_quick
// run sets up, so their millisecond set-up figures are medians of
// several.
const setupRepeats = 9

// minReps is the fewest passes a timed fleet or paper run makes, so
// every reported figure is a median of at least two processes.
const minReps = 2

// bench is one invocation of the benchmark.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	buildDir string
	remserve string

	passes []*passResult
	errs   []string
}

func (b *bench) failf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.errs = append(b.errs, msg)
	fmt.Fprintln(os.Stderr, "perfbench: FAIL:", msg)
}

// spawn runs one pass in a fresh child process.
func (b *bench) spawn(pass string, traced bool, extra ...string) (*passResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := append([]string{
		"-pass", pass, "-seed", strconv.FormatInt(b.seed, 10),
		"-traced=" + strconv.FormatBool(traced), "-build-dir", b.buildDir,
	}, extra...)
	start := time.Now()
	cmd := exec.Command(self, append(args, "-spawned", strconv.FormatInt(start.UnixNano(), 10))...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("pass %s: %w", pass, err)
	}
	wall := time.Since(start).Seconds()
	var pr passResult
	if err := json.Unmarshal(lastLine(out.Bytes()), &pr); err != nil {
		return nil, fmt.Errorf("pass %s: bad result: %w", pass, err)
	}
	pr.ProcWall = wall
	if _, ok := pr.E2E["runs_per_s"]; !ok && pr.E2E["run_s"] > 0 {
		pr.E2E["runs_per_s"] = float64(pr.Attempted) / wall
	}
	for _, e := range pr.Errors {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL: %s: %s\n", pass, e)
	}
	b.passes = append(b.passes, &pr)
	return &pr, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// timedPasses runs the workload untraced for about the run's length
// from start: the serve closed loop as one pass sized to it, fleet and
// paper workloads as back-to-back processes, at least minReps, and no
// new one that the last pass's length says would overrun.
func (b *bench) timedPasses(start time.Time) ([]*passResult, error) {
	if b.workload == "serve_mixed" {
		pairs := int(math.Ceil(servePairsPerSecond * b.seconds.Seconds()))
		pr, err := b.spawn("serve_mixed", false, "-pairs", strconv.Itoa(pairs), "-setups", strconv.Itoa(setupRepeats))
		if err != nil {
			return nil, err
		}
		return []*passResult{pr}, nil
	}
	var out []*passResult
	for {
		pr, err := b.spawn(b.workload, false)
		if err != nil {
			return nil, err
		}
		out = append(out, pr)
		next := time.Since(start) + time.Duration(pr.ProcWall*float64(time.Second))
		if len(out) >= minReps && next > b.seconds {
			return out, nil
		}
	}
}

// ladderPass runs one pass of workload w for the traced run.
func (b *bench) ladderPass(w string, traced bool) (*passResult, error) {
	if w == "serve_mixed" {
		return b.spawn(w, traced, "-pairs", strconv.Itoa(serveLadderPairs), "-setups", "1")
	}
	return b.spawn(w, traced)
}

// e2eMedians reduces passes to one figure per end-to-end metric, the
// median over the passes that measured it.
func e2eMedians(passes []*passResult) map[string]float64 {
	out := make(map[string]float64)
	for _, m := range endToEnd {
		var xs []float64
		for _, p := range passes {
			if v, ok := p.E2E[m.name]; ok {
				xs = append(xs, v)
			}
		}
		out[m.name] = median(xs)
	}
	return out
}

func (b *bench) run() error {
	if _, err := os.Stat(b.remserve); err != nil {
		return fmt.Errorf("remserve binary: %w (build with perfbench/run.sh)", err)
	}
	want, measure := endToEnd, b.timed
	if b.traced {
		want, measure = perLayer(), b.ladder
	}
	values, err := measure()
	if err != nil {
		return err
	}
	b.checkDigests()
	return b.report(values, want)
}

// timed is the timed run: the end-to-end medians over its passes.
func (b *bench) timed() (map[string]float64, error) {
	start := time.Now()
	var passes []*passResult
	if b.workload == "paper_quick" {
		// paper_quick sets up and first progresses once per process;
		// processes that stop after the first experiment add samples
		// to those two medians.
		for i := 0; i < setupRepeats; i++ {
			pr, err := b.spawn("paper_first", false)
			if err != nil {
				return nil, err
			}
			passes = append(passes, pr)
		}
	}
	timed, err := b.timedPasses(start)
	if err != nil {
		return nil, err
	}
	return e2eMedians(append(passes, timed...)), nil
}

// ladder is the traced run: the workload untraced and traced,
// interleaved A,B,A,B so the difference is the tracing overhead; one
// traced pass of every other workload; and the probes. Every per-layer
// metric comes from the pass that owns it (see README.md).
func (b *bench) ladder() (map[string]float64, error) {
	var untraced, traced []*passResult
	for i := 0; i < 2; i++ {
		a, err := b.ladderPass(b.workload, false)
		if err != nil {
			return nil, err
		}
		t, err := b.ladderPass(b.workload, true)
		if err != nil {
			return nil, err
		}
		untraced, traced = append(untraced, a), append(traced, t)
	}
	owners := map[string][]*passResult{b.workload: traced}
	for _, w := range workloadNames {
		if w == b.workload {
			continue
		}
		pr, err := b.ladderPass(w, true)
		if err != nil {
			return nil, err
		}
		owners[w] = []*passResult{pr}
	}
	probes, err := b.spawn("probes", true)
	if err != nil {
		return nil, err
	}
	owners["probes"] = []*passResult{probes}

	values := make(map[string]float64)
	var spans []span
	for _, prs := range owners {
		xs := make(map[string][]float64)
		for _, p := range prs {
			for k, v := range p.Layer {
				xs[k] = append(xs[k], v)
			}
		}
		for k, v := range xs {
			values[k] = median(v)
		}
		spans = append(spans, prs[0].Spans...)
	}
	for layer, s := range selfTimes(spans) {
		values["self."+layer+"_s"] = s
	}
	a, t := e2eMedians(untraced), e2eMedians(traced)
	for _, m := range endToEnd {
		values["tracing."+m.name+"_delta"] = t[m.name] - a[m.name]
	}
	if err := b.writeSpans(spans); err != nil {
		return nil, err
	}
	return values, nil
}

// writeSpans writes the traced run's spans, kept in memory until now,
// as one JSON document.
func (b *bench) writeSpans(spans []span) error {
	dir := filepath.Join(b.buildDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", b.workload, b.seed))
	return os.WriteFile(path, data, 0o644)
}

// checkDigests compares every pass's output digests: passes of one
// workload in this run (timed and traced alike), the digests an
// earlier run of the same workload and seed left in the build
// directory, and, for the default seed, the pinned values.
func (b *bench) checkDigests() {
	byWorkload := make(map[string]map[string]string)
	for _, p := range b.passes {
		if len(p.Digests) == 0 {
			continue
		}
		seen := byWorkload[p.Workload]
		if seen == nil {
			seen = make(map[string]string)
			byWorkload[p.Workload] = seen
		}
		for k, d := range p.Digests {
			if prev, ok := seen[k]; ok && prev != d {
				b.failf("%s: %s differs between passes of one seed", p.Workload, k)
			}
			seen[k] = d
		}
	}
	for w, got := range byWorkload {
		if runtime.GOARCH == pinnedArch && (b.seed == pinnedSeed || w == "paper_quick") {
			for k, want := range pins[w] {
				if got[k] != want {
					b.failf("%s seed %d: %s digest %s, pinned %s", w, b.seed, k, got[k], want)
				}
			}
		}
		path := filepath.Join(b.buildDir, "digests", fmt.Sprintf("%s-seed%d.json", w, b.seed))
		if data, err := os.ReadFile(path); err == nil {
			var prev map[string]string
			if err := json.Unmarshal(data, &prev); err != nil {
				b.failf("%s: %v", path, err)
				continue
			}
			for k, d := range got {
				if p, ok := prev[k]; ok && p != d {
					b.failf("%s seed %d: %s differs from an earlier run", w, b.seed, k)
				}
			}
			continue
		} else if !errors.Is(err, os.ErrNotExist) {
			b.failf("%s: %v", path, err)
			continue
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			b.failf("%v", err)
			continue
		}
		data, _ := json.Marshal(got)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			b.failf("%v", err)
		}
	}
}

// report prints the run record (host, seed, specs, per-pass figures)
// and then the result line with every wanted metric, and keeps the
// record in the build directory.
func (b *bench) report(values map[string]float64, want []metric) error {
	metrics := make(map[string]any, len(want))
	for _, m := range want {
		v, ok := values[m.name]
		if !ok {
			b.failf("run produced no %s", m.name)
			continue
		}
		metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
		fmt.Fprintf(os.Stderr, "%-34s %14.6g %s\n", m.name, v, m.unit)
	}
	// A mismatch found across passes or runs (digests, a missing
	// metric) is one more failed operation on top of each pass's own.
	attempted, failed := 0, len(b.errs)
	for _, p := range b.passes {
		attempted += p.Attempted
		failed += p.Failed
	}
	attempted = max(attempted, failed, 1)

	record := map[string]any{
		"workload": b.workload, "seed": b.seed, "trace": b.traced,
		"seconds": b.seconds.Seconds(), "host": fingerprint(),
		"passes": passSummaries(b.passes), "errors": b.errs,
	}
	recJS, err := json.Marshal(map[string]any{"record": record})
	if err != nil {
		return err
	}
	dir := filepath.Join(b.buildDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%t-%d.json", b.workload, b.seed, b.traced, time.Now().UnixNano())
	if err := os.WriteFile(filepath.Join(dir, name), recJS, 0o644); err != nil {
		return err
	}
	res, err := json.Marshal(map[string]any{
		"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "%s\n%s\n", recJS, res)
	return w.Flush()
}

// passSummaries is the record's view of each pass: what it ran, what
// it measured, and how many samples stand behind each sampled figure.
func passSummaries(passes []*passResult) []map[string]any {
	var out []map[string]any
	for _, p := range passes {
		samples := make(map[string]any)
		for k, xs := range p.Samples {
			samples[k] = map[string]float64{
				"n": float64(len(xs)), "p50": median(xs), "p90": quantile(xs, 0.9),
			}
		}
		out = append(out, map[string]any{
			"workload": p.Workload, "traced": p.Traced, "spec": p.Spec,
			"attempted": p.Attempted, "failed": p.Failed, "errors": p.Errors,
			"e2e": p.E2E, "samples": samples, "proc_wall_s": p.ProcWall,
		})
	}
	return out
}
