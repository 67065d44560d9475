package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rem/pkg/remclient"
)

// serveSpec is the run a serve_mixed client submits, once on the local
// path (shards 0) and once sharded across both members. A sharded spec
// cannot carry a UE offset, so runs differ by speed instead: pair p of
// workload seed s runs at 300 + (s*1000003 + p) mod 61 km/h.
func serveSpec(seed int64, pair, shards int) remclient.Spec {
	return remclient.Spec{
		UEs: 200, Dataset: "beijing-shanghai", Mode: "rem",
		SpeedKmh:    300 + float64(uint64(seed*1_000_003+int64(pair))%61),
		DurationSec: 4, Seed: worldSeed, EpochSec: 0.1,
		CellCapacity: 12, SpreadMarginDB: 3, Telemetry: true, Shards: shards,
	}
}

// serveClients is the closed loop's size: each client waits for its
// run's outputs before submitting the next, and -max-active 2 lets both
// execute at once.
const serveClients = 2

// serveCluster is one coordinator and two members, each a remserve
// process on loopback.
type serveCluster struct {
	procs []*exec.Cmd
	url   string
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startCluster spawns the coordinator, waits until it answers, spawns
// the members (GOMAXPROCS=1 each) and waits until the coordinator
// reports both. It returns the time from the first spawn until then.
// Members start only once the coordinator listens, because a member
// whose first join fails retries a whole heartbeat interval later.
func startCluster(ctx context.Context, bin, dir string) (*serveCluster, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	ports := make([]int, 3)
	for i := range ports {
		p, err := freePort()
		if err != nil {
			return nil, 0, err
		}
		ports[i] = p
	}
	url := func(i int) string { return "http://127.0.0.1:" + strconv.Itoa(ports[i]) }
	c := &serveCluster{url: url(0)}
	spawn := func(name string, env []string, args ...string) error {
		logf, err := os.Create(filepath.Join(dir, name+".log"))
		if err != nil {
			return err
		}
		defer logf.Close()
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = logf, logf
		cmd.Env = append(os.Environ(), env...)
		if err := cmd.Start(); err != nil {
			return err
		}
		c.procs = append(c.procs, cmd)
		return nil
	}
	client := remclient.New(c.url)
	waitFor := func(ok func(*remclient.Health) bool) error {
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			if h, err := client.Health(ctx); err == nil && ok(h) {
				return nil
			}
			time.Sleep(time.Millisecond)
		}
		return errors.New("remserve cluster did not come up within 30s")
	}

	t0 := time.Now()
	err := spawn("coordinator", nil, "-addr", "127.0.0.1:"+strconv.Itoa(ports[0]),
		"-role", "coordinator", "-journal", filepath.Join(dir, "journal"), "-max-active", "2")
	if err == nil {
		err = waitFor(func(*remclient.Health) bool { return true })
	}
	for i := 1; i <= 2 && err == nil; i++ {
		err = spawn(fmt.Sprintf("member%d", i), []string{"GOMAXPROCS=1"},
			"-addr", "127.0.0.1:"+strconv.Itoa(ports[i]), "-role", "member",
			"-coordinator", c.url, "-advertise", url(i), "-member-id", fmt.Sprintf("m%d", i))
	}
	if err == nil {
		err = waitFor(func(h *remclient.Health) bool { return h.Members != nil && *h.Members >= 2 })
	}
	setup := time.Since(t0)
	if err != nil {
		c.stop()
		return nil, 0, err
	}
	return c, setup, nil
}

// stop terminates every process and waits until each has exited.
func (c *serveCluster) stop() {
	for _, p := range c.procs {
		p.Process.Signal(syscall.SIGTERM)
	}
	for _, p := range c.procs {
		done := make(chan struct{})
		go func() { p.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			p.Process.Kill()
			<-done
		}
	}
}

// countingTransport counts response body bytes, so a client can read
// how large the timeline it just fetched was.
type countingTransport struct{ n atomic.Int64 }

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.n}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// serveRun is one client run's timings, in seconds, and its summary.
type serveRun struct {
	sharded                         bool
	ok                              bool
	submit, firstEvent, events, get float64
	result, timeline, cycle, scrape float64
	timelineBytes                   float64
	summary                         []byte
}

// doRun submits spec and reads every output a client would: the event
// stream to completion, the result, the timeline and, for the scraping
// client, the service metrics.
func doRun(ctx context.Context, c *remclient.Client, ct *countingTransport, spec remclient.Spec, scrape bool, tr *tracer, parent int) (serveRun, error) {
	r := serveRun{sharded: spec.Shards > 0}
	t0 := time.Now()
	since := func() float64 { return time.Since(t0).Seconds() }
	h := tr.begin("remserve.Submit", parent)
	run, err := c.Submit(ctx, spec)
	r.submit = time.Since(t0).Seconds()
	h.end()
	if err != nil {
		return r, fmt.Errorf("submit: %w", err)
	}
	h = tr.begin("remserve.Events", parent)
	te := time.Now()
	err = c.Events(ctx, run.ID, func(remclient.Event) error {
		if r.firstEvent == 0 {
			r.firstEvent = since()
		}
		return nil
	})
	r.events = time.Since(te).Seconds()
	h.end()
	if err != nil {
		return r, fmt.Errorf("events %s: %w", run.ID, err)
	}
	if r.firstEvent == 0 {
		r.firstEvent = since()
	}
	h = tr.begin("remserve.Get", parent)
	tg := time.Now()
	got, err := c.Get(ctx, run.ID)
	r.get = time.Since(tg).Seconds()
	h.end()
	r.result = since()
	if err != nil {
		return r, fmt.Errorf("get %s: %w", run.ID, err)
	}
	if got.State != remclient.StateDone || got.Result == nil {
		return r, fmt.Errorf("run %s ended %s: %s", run.ID, got.State, got.Error)
	}
	r.summary = got.Result.Summary
	h = tr.begin("remserve.Timeline", parent)
	tt := time.Now()
	ct.n.Store(0)
	err = c.Timeline(ctx, run.ID, func(remclient.TimelineEvent) error { return nil })
	r.timeline = time.Since(tt).Seconds()
	r.timelineBytes = float64(ct.n.Load())
	h.end()
	if err != nil {
		return r, fmt.Errorf("timeline %s: %w", run.ID, err)
	}
	r.cycle = since()
	if scrape {
		h = tr.begin("remserve.ServerMetricsText", parent)
		ts := time.Now()
		_, err = c.ServerMetricsText(ctx)
		r.scrape = time.Since(ts).Seconds()
		h.end()
		if err != nil {
			return r, fmt.Errorf("metrics scrape: %w", err)
		}
	}
	r.ok = true
	return r, nil
}

// servePass sets the cluster up setups times (keeping the last), then
// runs the closed loop: each client runs pairs pairs, each a local and
// a sharded run of one spec whose summaries must match byte for byte.
func servePass(ctx context.Context, seed int64, bin, dir string, setups, pairs int, tr *tracer) (*passResult, error) {
	pr := newPassResult("serve_mixed", seed, tr != nil, serveSpec(seed, 0, 2))
	root := tr.begin("bench.serve_mixed", 0)
	defer root.end()
	var setupS []float64
	var cl *serveCluster
	for i := 0; i < setups; i++ {
		c, d, err := startCluster(ctx, bin, filepath.Join(dir, fmt.Sprintf("setup%d", i)))
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, d.Seconds())
		if i < setups-1 {
			c.stop()
		} else {
			cl = c
		}
	}
	defer cl.stop()

	var mu sync.Mutex
	var runs []serveRun
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < serveClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ct := &countingTransport{}
			c := remclient.New(cl.url)
			c.HTTPClient = &http.Client{Transport: ct}
			for k := 0; k < pairs; k++ {
				p := k*serveClients + i
				var pair [2]serveRun
				for j, shards := range []int{0, 2} {
					r, err := doRun(ctx, c, ct, serveSpec(seed, p, shards), i == 0, tr, root.id)
					if err != nil {
						mu.Lock()
						pr.fail("client %d: %v", i, err)
						mu.Unlock()
					}
					pair[j] = r
				}
				mu.Lock()
				pr.Attempted += 2
				if pair[0].ok && pair[1].ok && !bytes.Equal(pair[0].summary, pair[1].summary) {
					pr.fail("pair %d: local and sharded summaries differ", p)
				}
				runs = append(runs, pair[0], pair[1])
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	window := time.Since(start).Seconds()
	rss, err := peakRSSMB(strconv.Itoa(cl.procs[0].Process.Pid))
	if err != nil {
		return nil, err
	}

	// A failed run counts as missing any latency limit: it enters the
	// latency samples at the whole loop's length.
	col := func(f func(serveRun) float64, keep func(serveRun) bool) []float64 {
		var out []float64
		for _, r := range runs {
			if !keep(r) {
				continue
			}
			if r.ok {
				out = append(out, f(r))
			} else {
				out = append(out, window)
			}
		}
		return out
	}
	all := func(serveRun) bool { return true }
	local := func(r serveRun) bool { return !r.sharded }
	sharded := func(r serveRun) bool { return r.sharded }
	completed := 0
	for _, r := range runs {
		if r.ok {
			completed++
		}
	}
	pr.E2E = map[string]float64{
		"setup_s":          median(setupS),
		"first_progress_s": median(col(func(r serveRun) float64 { return r.firstEvent }, all)),
		"run_s":            median(col(func(r serveRun) float64 { return r.cycle }, all)),
		"peak_rss_mb":      rss,
		"runs_per_s":       float64(completed) / window,
	}
	pr.Samples = map[string][]float64{
		"setup_s":          setupS,
		"local_result_s":   col(func(r serveRun) float64 { return r.result }, local),
		"sharded_result_s": col(func(r serveRun) float64 { return r.result }, sharded),
	}
	okOnly := func(f func(serveRun) float64, keep func(serveRun) bool) []float64 {
		var out []float64
		for _, r := range runs {
			if r.ok && keep(r) {
				out = append(out, f(r))
			}
		}
		return out
	}
	scraper := func(r serveRun) bool { return r.scrape > 0 }
	for k, v := range map[string]float64{
		"remserve.local_run_p50_s":   median(pr.Samples["local_result_s"]),
		"remserve.local_run_p90_s":   quantile(pr.Samples["local_result_s"], 0.9),
		"remserve.sharded_run_p50_s": median(pr.Samples["sharded_result_s"]),
		"remserve.sharded_run_p90_s": quantile(pr.Samples["sharded_result_s"], 0.9),
		"remserve.submit_ms":         1000 * median(okOnly(func(r serveRun) float64 { return r.submit }, all)),
		"remserve.events_s":          median(okOnly(func(r serveRun) float64 { return r.events }, all)),
		"remserve.result_ms":         1000 * median(okOnly(func(r serveRun) float64 { return r.get }, all)),
		"remserve.timeline_ms":       1000 * median(okOnly(func(r serveRun) float64 { return r.timeline }, all)),
		"remserve.timeline_bytes":    median(okOnly(func(r serveRun) float64 { return r.timelineBytes }, all)),
		"remserve.metrics_scrape_ms": 1000 * median(okOnly(func(r serveRun) float64 { return r.scrape }, scraper)),
	} {
		pr.Layer[k] = v
	}
	return pr, nil
}
