package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"rem"
)

// TestMetricsDefaultIsPrometheus pins the /metrics contract without
// content negotiation: a plain GET serves the Prometheus exposition,
// the run counters saw the run, the epoch histogram carries one bucket
// per bound plus +Inf, and its count agrees with the epoch counter.
func TestMetricsDefaultIsPrometheus(t *testing.T) {
	_, ts := newTestServer(t)
	v := postRun(t, ts, `{"ues":5,"dataset":"beijing-shanghai","mode":"rem","speed_kmh":330,"duration_sec":2,"seed":3}`)
	waitState(t, ts, v.ID, stateDone)

	m := scrapeMetrics(t, ts)
	if m["remserve_runs_started_total"] != 1 || m["remserve_runs_completed_total"] != 1 {
		t.Fatalf("metrics: %v", m)
	}
	buckets := 0
	for series := range m {
		if strings.HasPrefix(series, "remserve_epoch_wall_ms_bucket{") {
			buckets++
		}
	}
	if buckets != len(epochBuckets)+1 {
		t.Fatalf("remserve_epoch_wall_ms has %d buckets, want %d", buckets, len(epochBuckets)+1)
	}
	if count, epochs := m["remserve_epoch_wall_ms_count"], m["remserve_epochs_total"]; count != epochs || epochs == 0 {
		t.Fatalf("histogram count %g, epochs = %g", count, epochs)
	}
}

// TestMetricsPrometheusNegotiation checks that the same /metrics
// endpoint serves the Prometheus text exposition when the client asks
// for text/plain.
func TestMetricsPrometheusNegotiation(t *testing.T) {
	_, ts := newTestServer(t)
	v := postRun(t, ts, `{"ues":5,"dataset":"beijing-shanghai","mode":"rem","speed_kmh":330,"duration_sec":2,"seed":3}`)
	waitState(t, ts, v.ID, stateDone)

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != rem.PrometheusContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, rem.PrometheusContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE remserve_runs_started_total counter",
		"remserve_runs_started_total 1",
		"remserve_epoch_wall_ms_bucket{le=\"+Inf\"}",
		"remserve_epoch_wall_ms_sum",
		"remserve_epoch_wall_ms_count",
		"# TYPE remserve_active_runs gauge",
		"# TYPE remserve_epoch_allocs_total counter",
		"# TYPE remserve_last_epoch_ns gauge",
		"# TYPE remserve_last_epoch_allocs gauge",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("Prometheus exposition missing %q in:\n%s", want, text)
		}
	}
	// The per-epoch performance gauges carry real measurements after a
	// completed run: the last epoch took nonzero wall time.
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "remserve_last_epoch_ns "); ok {
			if v, err := strconv.ParseFloat(rest, 64); err != nil || v <= 0 {
				t.Fatalf("remserve_last_epoch_ns = %q, want > 0", rest)
			}
		}
	}
}

// TestRunTelemetryEndpoints drives the armed-run surface end to end:
// a spec with "telemetry": true gets a streamable NDJSON timeline and
// a per-run metrics snapshot; a disarmed run 409s on both.
func TestRunTelemetryEndpoints(t *testing.T) {
	_, ts := newTestServer(t)
	spec := `{"ues":8,"dataset":"beijing-shanghai","mode":"rem","speed_kmh":330,"duration_sec":3,"seed":7,"telemetry":true}`
	v := postRun(t, ts, spec)
	done := waitState(t, ts, v.ID, stateDone)
	if done.Timeline == 0 {
		t.Fatal("run view reports no timeline events")
	}

	// Timeline: replay + terminal close, parseable by the codec.
	tresp, err := http.Get(ts.URL + "/runs/" + v.ID + "/timeline")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if ct := tresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("timeline Content-Type = %q", ct)
	}
	evs, err := rem.ReadTimeline(tresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != done.Timeline {
		t.Fatalf("streamed %d events, run view says %d", len(evs), done.Timeline)
	}
	attaches := 0
	for _, ev := range evs {
		if ev.Kind == "attach" {
			attaches++
		}
	}
	if attaches < 8 {
		t.Fatalf("%d attach events for 8 UEs", attaches)
	}

	// Metrics: Prometheus text by default, snapshot JSON on request.
	mresp, err := http.Get(ts.URL + "/runs/" + v.ID + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); ct != rem.PrometheusContentType {
		t.Fatalf("run metrics Content-Type = %q", ct)
	}
	body, _ := io.ReadAll(mresp.Body)
	if !strings.Contains(string(body), "rem_handovers_total") {
		t.Fatalf("run metrics missing rem_handovers_total:\n%s", body)
	}
	jreq, _ := http.NewRequest(http.MethodGet, ts.URL+"/runs/"+v.ID+"/metrics", nil)
	jreq.Header.Set("Accept", "application/json")
	jresp, err := http.DefaultClient.Do(jreq)
	if err != nil {
		t.Fatal(err)
	}
	defer jresp.Body.Close()
	var snap rem.MetricsSnapshot
	if err := json.NewDecoder(jresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Samples) == 0 {
		t.Fatal("empty snapshot JSON")
	}

	// A disarmed run must refuse both endpoints with 409.
	plain := postRun(t, ts, `{"ues":4,"dataset":"beijing-shanghai","mode":"rem","speed_kmh":330,"duration_sec":2,"seed":7}`)
	waitState(t, ts, plain.ID, stateDone)
	for _, path := range []string{"/timeline", "/metrics"} {
		resp, err := http.Get(ts.URL + "/runs/" + plain.ID + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("GET %s on disarmed run: status %d, want 409", path, resp.StatusCode)
		}
	}
}

// TestRunTelemetryDeterministicReplay re-POSTs the same armed spec
// and asserts the two timeline streams are byte-identical — the
// service-level face of the (seed, spec)-only determinism contract.
func TestRunTelemetryDeterministicReplay(t *testing.T) {
	_, ts := newTestServer(t)
	spec := `{"ues":6,"dataset":"beijing-taiyuan","mode":"rem","speed_kmh":300,"duration_sec":3,"seed":11,"telemetry":true,"workers":3}`
	fetch := func() []byte {
		v := postRun(t, ts, spec)
		waitState(t, ts, v.ID, stateDone)
		resp, err := http.Get(ts.URL + "/runs/" + v.ID + "/timeline")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := fetch(), fetch(); !bytes.Equal(a, b) {
		t.Fatal("re-POSTed armed run produced a different timeline stream")
	}
}
