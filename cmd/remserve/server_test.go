package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"rem"
)

func newTestServer(t *testing.T) (*server, *httptest.Server) {
	return newTestServerCfg(t, serverConfig{})
}

func newTestServerCfg(t *testing.T, cfg serverConfig) (*server, *httptest.Server) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	s, err := newServer(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.journal.Close() })
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postRun(t *testing.T, ts *httptest.Server, body string) runView {
	t.Helper()
	resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /runs: status %d", resp.StatusCode)
	}
	var v runView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func getRun(t *testing.T, ts *httptest.Server, id string) runView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v runView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func waitState(t *testing.T, ts *httptest.Server, id, want string) runView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		v := getRun(t, ts, id)
		if v.State == want {
			return v
		}
		if terminal(v.State) && v.State != want {
			t.Fatalf("run %s reached %q (err %q), want %q", id, v.State, v.Error, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("run %s never reached %q", id, want)
	return runView{}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

func TestRunLifecycle(t *testing.T) {
	_, ts := newTestServer(t)
	v := postRun(t, ts, `{"ues":20,"dataset":"beijing-shanghai","mode":"rem","speed_kmh":330,"duration_sec":3,"seed":7}`)
	if v.ID != "run-0001" {
		t.Fatalf("id = %q", v.ID)
	}
	done := waitState(t, ts, v.ID, stateDone)
	if done.Result == nil {
		t.Fatal("done run has no result")
	}
	if got := done.Result.Summary.UEs; got != 20 {
		t.Fatalf("result UEs = %d, want 20", got)
	}
	if done.Result.Summary.Mode != "rem" || done.Result.Summary.Dataset != "beijing-shanghai" {
		t.Fatalf("result header: %+v", done.Result.Summary)
	}
	if !strings.Contains(done.Result.Report, "Fleet reliability") {
		t.Fatal("rendered report missing from result")
	}

	// The service result must equal a direct engine run of the same
	// spec — the server adds no nondeterminism.
	direct, err := rem.RunFleet(context.Background(), rem.FleetSpec{
		UEs: 20, Dataset: rem.BeijingShanghai, Mode: rem.ModeREM,
		SpeedKmh: 330, DurationSec: 3, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*done.Result, *direct) {
		t.Fatal("server result differs from direct fleet run")
	}

	// List view includes it.
	resp, err := http.Get(ts.URL + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Runs []runView `json:"runs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Runs) != 1 || list.Runs[0].ID != v.ID {
		t.Fatalf("list: %+v", list.Runs)
	}
}

func TestEventStream(t *testing.T) {
	_, ts := newTestServer(t)
	// Open the stream while the run is live: replay + follow must
	// deliver every event and terminate at run completion.
	v := postRun(t, ts, `{"ues":30,"dataset":"beijing-shanghai","mode":"legacy","speed_kmh":330,"duration_sec":4,"seed":3}`)
	resp, err := http.Get(ts.URL + "/runs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content-type %q", ct)
	}
	var streamed []rem.FleetEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev rem.FleetEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		streamed = append(streamed, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	done := waitState(t, ts, v.ID, stateDone)
	if len(streamed) != done.Events {
		t.Fatalf("streamed %d events, run recorded %d", len(streamed), done.Events)
	}
	if len(streamed) == 0 {
		t.Fatal("expected events from a 30-UE run")
	}

	// A second read after completion replays the identical sequence.
	resp2, err := http.Get(ts.URL + "/runs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var replayed []rem.FleetEvent
	sc2 := bufio.NewScanner(resp2.Body)
	for sc2.Scan() {
		var ev rem.FleetEvent
		if err := json.Unmarshal(sc2.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		replayed = append(replayed, ev)
	}
	if !reflect.DeepEqual(streamed, replayed) {
		t.Fatal("replay differs from live stream")
	}
}

func TestConcurrentRunsAndCancel(t *testing.T) {
	s, ts := newTestServer(t)
	// A long run to cancel plus short runs completing around it.
	long := postRun(t, ts, `{"ues":20,"dataset":"beijing-shanghai","mode":"legacy","speed_kmh":330,"duration_sec":600,"seed":1,"epoch_sec":0.2}`)
	var wg sync.WaitGroup
	ids := make([]string, 3)
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v := postRun(t, ts, fmt.Sprintf(
				`{"ues":10,"dataset":"beijing-taiyuan","mode":"rem","speed_kmh":300,"duration_sec":2,"seed":%d}`, i+2))
			ids[i] = v.ID
		}(i)
	}
	wg.Wait()
	for _, id := range ids {
		waitState(t, ts, id, stateDone)
	}

	waitState(t, ts, long.ID, stateRunning)
	resp, err := http.Post(ts.URL+"/runs/"+long.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, ts, long.ID, stateCanceled)

	// Metrics reflect the mixture.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var m metricsView
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.RunsStarted != 4 || m.RunsCompleted != 3 || m.RunsCanceled != 1 {
		t.Fatalf("metrics: %+v", m)
	}
	if m.Epochs == 0 {
		t.Fatal("no epochs observed in latency histogram")
	}
	total := 0
	for _, b := range m.EpochWallHist {
		total += b.Count
	}
	if total != m.Epochs {
		t.Fatalf("histogram sums to %d, epochs = %d", total, m.Epochs)
	}
	_ = s
}

// TestEngineRejectedSpecFails: a spec that passes admission but fails
// the engine's own validation (more workers than UEs) ends failed with
// the engine's error and counts as exactly one failed run.
func TestEngineRejectedSpecFails(t *testing.T) {
	_, ts := newTestServer(t)
	v := postRun(t, ts, `{"ues":2,"workers":3,"dataset":"beijing-shanghai","mode":"rem","speed_kmh":330,"duration_sec":2,"seed":3}`)
	done := waitState(t, ts, v.ID, stateFailed)
	if !strings.Contains(done.Error, "3 workers exceed 2 UEs") {
		t.Fatalf("run error = %q, want the engine's workers error", done.Error)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m metricsView
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.RunsStarted != 1 || m.RunsFailed != 1 || m.RunsCompleted != 0 {
		t.Fatalf("metrics: %+v", m)
	}
}

func TestBaseContextCancelTearsDownRuns(t *testing.T) {
	// Simulates SIGTERM: cancelling the server's base context must tear
	// down in-flight fleets, and since the client never asked for the
	// cancel, the run surfaces as failed — with the shutdown recorded
	// in the journal so a restarted server need not re-fail it.
	journalPath := filepath.Join(t.TempDir(), "runs.journal")
	ctx, cancel := context.WithCancel(context.Background())
	s, err := newServer(ctx, serverConfig{JournalPath: journalPath})
	if err != nil {
		t.Fatal(err)
	}
	defer s.journal.Close()
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	v := postRun(t, ts, `{"ues":10,"dataset":"beijing-shanghai","mode":"legacy","speed_kmh":330,"duration_sec":600,"seed":1}`)
	waitState(t, ts, v.ID, stateRunning)
	cancel()
	got := waitState(t, ts, v.ID, stateFailed)
	if !strings.Contains(got.Error, "shutdown") {
		t.Fatalf("error = %q, want mention of shutdown", got.Error)
	}

	// The graceful path journaled an end record: a restarted server
	// sees the run as terminal, not interrupted.
	s2, err := newServer(context.Background(), serverConfig{JournalPath: journalPath})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.journal.Close()
	s2.mu.Lock()
	r2 := s2.runs[v.ID]
	s2.mu.Unlock()
	if r2 != nil {
		t.Fatalf("gracefully ended run %s re-recovered as %q", v.ID, r2.state)
	}
}

func TestUserCancelStaysCanceled(t *testing.T) {
	_, ts := newTestServer(t)
	v := postRun(t, ts, `{"ues":10,"dataset":"beijing-shanghai","mode":"legacy","speed_kmh":330,"duration_sec":600,"seed":1}`)
	waitState(t, ts, v.ID, stateRunning)
	resp, err := http.Post(ts.URL+"/runs/"+v.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, ts, v.ID, stateCanceled)
}

func TestLoadSheddingQueueFull(t *testing.T) {
	// One active slot, no queue: the second concurrent run must be shed
	// with 503 + Retry-After instead of piling up.
	s, ts := newTestServerCfg(t, serverConfig{MaxActive: 1, MaxQueue: -1})
	long := postRun(t, ts, `{"ues":10,"dataset":"beijing-shanghai","mode":"legacy","speed_kmh":330,"duration_sec":600,"seed":1}`)
	waitState(t, ts, long.ID, stateRunning)

	resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(
		`{"ues":5,"dataset":"beijing-shanghai","mode":"rem","speed_kmh":330,"duration_sec":2,"seed":2}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("503 without Retry-After header")
	}
	s.mu.Lock()
	shed := s.sm.shed.Value()
	s.mu.Unlock()
	if shed != 1 {
		t.Fatalf("runs shed = %v, want 1", shed)
	}

	// Cancel the hog; capacity frees and the next POST is admitted.
	cresp, err := http.Post(ts.URL+"/runs/"+long.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	waitState(t, ts, long.ID, stateCanceled)
	v := postRun(t, ts, `{"ues":5,"dataset":"beijing-shanghai","mode":"rem","speed_kmh":330,"duration_sec":2,"seed":2}`)
	waitState(t, ts, v.ID, stateDone)
}

func TestQueuedRunWaitsForSlot(t *testing.T) {
	// With a queue, an over-capacity run is admitted as pending and
	// executes once the active run finishes.
	_, ts := newTestServerCfg(t, serverConfig{MaxActive: 1, MaxQueue: 4})
	long := postRun(t, ts, `{"ues":10,"dataset":"beijing-shanghai","mode":"legacy","speed_kmh":330,"duration_sec":600,"seed":1}`)
	waitState(t, ts, long.ID, stateRunning)
	queued := postRun(t, ts, `{"ues":5,"dataset":"beijing-shanghai","mode":"rem","speed_kmh":330,"duration_sec":2,"seed":2}`)
	if v := getRun(t, ts, queued.ID); v.State != statePending {
		t.Fatalf("queued run state = %q, want pending", v.State)
	}
	resp, err := http.Post(ts.URL+"/runs/"+long.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, ts, queued.ID, stateDone)
}

func TestRunTimeoutFailsRun(t *testing.T) {
	_, ts := newTestServerCfg(t, serverConfig{RunTimeout: 50 * time.Millisecond})
	v := postRun(t, ts, `{"ues":10,"dataset":"beijing-shanghai","mode":"legacy","speed_kmh":330,"duration_sec":600,"seed":1}`)
	got := waitState(t, ts, v.ID, stateFailed)
	if !strings.Contains(got.Error, "deadline") {
		t.Fatalf("error = %q, want deadline mention", got.Error)
	}
}

func TestOversizedBodyRejected(t *testing.T) {
	_, ts := newTestServerCfg(t, serverConfig{MaxBody: 256})
	// Leading whitespace is valid JSON padding, so the only possible
	// rejection is the body-size limit.
	big := strings.Repeat(" ", 1024) +
		`{"ues":5,"duration_sec":5,"dataset":"beijing-shanghai","mode":"rem"}`
	resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

func TestJournalRecoveryMarksInterruptedRunFailed(t *testing.T) {
	// Simulate a crash: write a journal whose last run has a start but
	// no end. The next server must surface it as failed and keep
	// allocating fresh IDs after it.
	journalPath := filepath.Join(t.TempDir(), "runs.journal")
	lines := []string{
		`{"op":"start","id":"run-0001","spec":{"ues":3,"duration_sec":2,"dataset":"beijing-shanghai","mode":"rem"}}`,
		`{"op":"end","id":"run-0001","state":"done"}`,
		`{"op":"start","id":"run-0002","spec":{"ues":9,"duration_sec":600,"dataset":"beijing-shanghai","mode":"legacy"}}`,
		`{"op":"sta`, // torn final write mid-crash: must be tolerated
	}
	if err := os.WriteFile(journalPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServerCfg(t, serverConfig{JournalPath: journalPath})

	v := getRun(t, ts, "run-0002")
	if v.State != stateFailed || !strings.Contains(v.Error, "restart") {
		t.Fatalf("recovered run: state %q err %q, want failed/interrupted", v.State, v.Error)
	}
	if v.Spec.UEs != 9 {
		t.Fatalf("recovered spec lost: %+v", v.Spec)
	}
	s.mu.Lock()
	recovered := s.sm.recovered.Value()
	s.mu.Unlock()
	if recovered != 1 {
		t.Fatalf("runs recovered = %v, want 1 (run-0001 ended cleanly)", recovered)
	}

	// New runs continue the sequence past recovered IDs.
	nv := postRun(t, ts, `{"ues":5,"dataset":"beijing-shanghai","mode":"rem","speed_kmh":330,"duration_sec":2,"seed":4}`)
	if nv.ID != "run-0003" {
		t.Fatalf("next id = %q, want run-0003", nv.ID)
	}
	waitState(t, ts, nv.ID, stateDone)

	// And recovery is idempotent: a third boot sees end records for
	// everything and recovers nothing.
	s3, err := newServer(context.Background(), serverConfig{JournalPath: journalPath})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.journal.Close()
	s3.mu.Lock()
	again := s3.sm.recovered.Value()
	s3.mu.Unlock()
	if again != 0 {
		t.Fatalf("second recovery found %v interrupted runs, want 0", again)
	}
}

func TestRunWithFaultPlan(t *testing.T) {
	// A spec may carry an inline fault plan; it must execute and be
	// echoed back in the run view, and injected loss must leave a trace
	// in the summary.
	_, ts := newTestServer(t)
	v := postRun(t, ts, `{"ues":10,"dataset":"beijing-shanghai","mode":"legacy","speed_kmh":330,
		"duration_sec":5,"seed":7,
		"faults":{"name":"svc","bursts":[{"start_sec":0,"end_sec":5,"p_good_to_bad":0.4,"p_bad_to_good":0.2,"loss_good":0,"loss_bad":0.95}]}}`)
	done := waitState(t, ts, v.ID, stateDone)
	if done.Spec.Faults == nil || done.Spec.Faults.Name != "svc" {
		t.Fatalf("fault plan not echoed in run view: %+v", done.Spec.Faults)
	}
	if done.Result.Summary.FaultLosses == 0 {
		t.Fatal("burst plan injected no losses over 5s at 330 km/h")
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	for _, body := range []string{
		`not json`,
		`{"ues":0,"duration_sec":5}`,
		`{"ues":5}`,
		`{"ues":5,"duration_sec":5,"mode":"warp-drive"}`,
		`{"ues":5,"duration_sec":5,"dataset":"mars"}`,
		`{"ues":5,"duration_sec":5,"bogus_field":1}`,
	} {
		resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	for _, path := range []string{"/runs/run-9999", "/runs/run-9999/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}
