package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rem"
	"rem/internal/cluster"
)

// clusterSpecJSON is the sharded run body used across the cluster
// tests: admission-coupled, so byte-identity proves the load exchange.
const clusterSpecJSON = `{"ues":60,"dataset":"beijing-shanghai","mode":"rem","speed_kmh":330,` +
	`"duration_sec":2,"seed":7,"cell_capacity":12,"spread_margin_db":3,"shards":%d,"telemetry":%t}`

// directResult runs the same spec on the in-process engine.
func directResult(t *testing.T) []byte {
	t.Helper()
	res, err := rem.RunFleet(context.Background(), rem.FleetSpec{
		UEs: 60, Dataset: rem.BeijingShanghai, Mode: rem.ModeREM,
		SpeedKmh: 330, DurationSec: 2, Seed: 7,
		CellCapacity: 12, SpreadMarginDB: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	js, _ := json.Marshal(res)
	return js
}

// newMemberRemserve boots a remserve in member role and registers it
// with the coordinator server's registry.
func newMemberRemserve(t *testing.T, s *server, id string) *httptest.Server {
	t.Helper()
	_, ts := newTestServerCfg(t, serverConfig{Role: roleMember})
	s.coord.Register(id, ts.URL)
	return ts
}

func TestHealthzRoles(t *testing.T) {
	getHealth := func(ts *httptest.Server) healthView {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v healthView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		return v
	}

	_, single := newTestServer(t)
	if v := getHealth(single); v.Status != "ok" || v.Role != roleSingle || !v.Ready || v.Members != nil {
		t.Fatalf("single healthz = %+v", v)
	}

	cs, cts := newTestServerCfg(t, serverConfig{Role: roleCoordinator, MemberTTL: time.Hour})
	if v := getHealth(cts); v.Role != roleCoordinator || v.Ready || v.Members == nil || *v.Members != 0 {
		t.Fatalf("empty coordinator healthz = %+v", v)
	}
	newMemberRemserve(t, cs, "m0")
	if v := getHealth(cts); !v.Ready || *v.Members != 1 {
		t.Fatalf("coordinator healthz after join = %+v", v)
	}

	_, mts := newTestServerCfg(t, serverConfig{Role: roleMember})
	if v := getHealth(mts); v.Role != roleMember || !v.Ready || v.Shards == nil || *v.Shards != 0 {
		t.Fatalf("member healthz = %+v", v)
	}
}

// TestClusterRunEndToEnd drives a sharded, telemetry-armed run through
// the full remserve stack — coordinator + two member remserves over
// HTTP — and pins the merged result to the in-process engine's bytes,
// with the assignment history landing in the journal.
func TestClusterRunEndToEnd(t *testing.T) {
	want := directResult(t)
	journal := filepath.Join(t.TempDir(), "journal.ndjson")
	s, ts := newTestServerCfg(t, serverConfig{
		Role: roleCoordinator, MemberTTL: time.Hour, JournalPath: journal,
	})
	newMemberRemserve(t, s, "m0")
	newMemberRemserve(t, s, "m1")

	v := postRun(t, ts, fmt.Sprintf(clusterSpecJSON, 4, true))
	done := waitState(t, ts, v.ID, stateDone)
	if done.Result == nil {
		t.Fatal("done cluster run has no result")
	}
	got, _ := json.Marshal(done.Result)
	if string(got) != string(want) {
		t.Fatal("sharded result differs from in-process engine")
	}

	// The armed plane must serve a merged timeline and snapshot.
	resp, err := http.Get(ts.URL + "/runs/" + v.ID + "/timeline")
	if err != nil {
		t.Fatal(err)
	}
	tl, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(tl) == 0 {
		t.Error("cluster run served an empty timeline")
	}
	resp, err = http.Get(ts.URL + "/runs/" + v.ID + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(prom), "rem_epochs_total") {
		t.Errorf("cluster run metrics missing run schema:\n%.200s", prom)
	}

	// Journal: one start, four assigns (no failover), one end.
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	assigns := 0
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var e journalEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad journal line %q: %v", line, err)
		}
		if e.Op == "assign" {
			assigns++
			if e.Shard == nil || e.Member == "" {
				t.Errorf("assign entry missing fields: %q", line)
			}
		}
	}
	if assigns != 4 {
		t.Errorf("journal has %d assign entries, want 4", assigns)
	}
}

// TestShardedRunRecordsEpochWallTime: the coordinator times every
// barrier round of a sharded run and sums the members' per-epoch
// allocation counts, so the epoch wall-time and allocation families
// carry real measurements instead of zeros.
func TestShardedRunRecordsEpochWallTime(t *testing.T) {
	s, ts := newTestServerCfg(t, serverConfig{Role: roleCoordinator, MemberTTL: time.Hour})
	newMemberRemserve(t, s, "m0")
	newMemberRemserve(t, s, "m1")
	v := postRun(t, ts, fmt.Sprintf(clusterSpecJSON, 2, false))
	waitState(t, ts, v.ID, stateDone)

	values := scrapeMetrics(t, ts)
	if values["remserve_epochs_total"] == 0 {
		t.Fatalf("no epochs recorded: %v", values)
	}
	for _, name := range []string{"remserve_last_epoch_ns", "remserve_epoch_wall_ms_sum", "remserve_epoch_allocs_total"} {
		if values[name] <= 0 {
			t.Errorf("%s = %g, want > 0", name, values[name])
		}
	}
}

// flakyProxy fronts a member remserve and refuses shard calls once
// tripped, simulating a member killed mid-run.
type flakyProxy struct {
	target  http.Handler
	tripped atomic.Bool
	steps   atomic.Int64
	tripAt  int64
}

func (f *flakyProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/cluster/v1/shard/") {
		if f.steps.Load() >= f.tripAt {
			f.tripped.Store(true)
		}
		if f.tripped.Load() {
			http.Error(w, `{"error":"member killed"}`, http.StatusServiceUnavailable)
			return
		}
		if r.URL.Path == "/cluster/v1/shard/step" {
			f.steps.Add(1)
		}
	}
	f.target.ServeHTTP(w, r)
}

// TestClusterFailoverEndToEnd kills one member remserve after two
// epochs: the run must complete with byte-identical output and the
// journal must record the reassignment.
func TestClusterFailoverEndToEnd(t *testing.T) {
	want := directResult(t)
	journal := filepath.Join(t.TempDir(), "journal.ndjson")
	s, ts := newTestServerCfg(t, serverConfig{
		Role: roleCoordinator, MemberTTL: time.Hour, JournalPath: journal,
	})
	newMemberRemserve(t, s, "m0")

	shaky, _ := newTestServerCfg(t, serverConfig{Role: roleMember})
	proxy := httptest.NewServer(&flakyProxy{target: shaky.handler(), tripAt: 2})
	t.Cleanup(proxy.Close)
	s.coord.Register("m1", proxy.URL)

	v := postRun(t, ts, fmt.Sprintf(clusterSpecJSON, 2, false))
	done := waitState(t, ts, v.ID, stateDone)
	got, _ := json.Marshal(done.Result)
	if string(got) != string(want) {
		t.Fatal("failover result differs from in-process engine")
	}

	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	reassigned := 0
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var e journalEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatal(err)
		}
		if e.Op == "assign" && e.Reassigned {
			reassigned++
			if e.Member == "m1" {
				t.Errorf("shard reassigned to the dead member: %q", line)
			}
			if e.Epoch == 0 {
				t.Errorf("failover assignment claims epoch 0: %q", line)
			}
		}
	}
	if reassigned == 0 {
		t.Fatal("journal records no reassignment")
	}
}

// TestCoordinatorRestartResumesShardedRun boots a coordinator over a
// journal holding an interrupted sharded run: the run must be
// re-queued, re-executed and finish with the engine's exact bytes.
func TestCoordinatorRestartResumesShardedRun(t *testing.T) {
	want := directResult(t)
	journal := filepath.Join(t.TempDir(), "journal.ndjson")
	spec := fmt.Sprintf(clusterSpecJSON, 2, false)
	start := fmt.Sprintf(`{"op":"start","id":"run-0007","spec":%s}`, spec)
	assign := `{"op":"assign","id":"run-0007","shard":0,"member":"gone","addr":"http://127.0.0.1:1","epoch":3}`
	if err := os.WriteFile(journal, []byte(start+"\n"+assign+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, ts := newTestServerCfg(t, serverConfig{
		Role: roleCoordinator, MemberTTL: time.Hour, JournalPath: journal,
	})
	newMemberRemserve(t, s, "m0")

	done := waitState(t, ts, "run-0007", stateDone)
	got, _ := json.Marshal(done.Result)
	if string(got) != string(want) {
		t.Fatal("resumed run differs from in-process engine")
	}
	if v := s.sm.resumed.Value(); v != 1 {
		t.Errorf("remserve_runs_resumed_total = %g, want 1", v)
	}

	// A single-process server re-queues the same run unsharded and
	// finishes it with the same bytes: every role resumes.
	localStart := fmt.Sprintf(`{"op":"start","id":"run-0007","spec":%s}`, fmt.Sprintf(clusterSpecJSON, 0, false))
	journal2 := filepath.Join(t.TempDir(), "journal.ndjson")
	if err := os.WriteFile(journal2, []byte(localStart+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, ts2 := newTestServerCfg(t, serverConfig{JournalPath: journal2})
	done = waitState(t, ts2, "run-0007", stateDone)
	if got, _ := json.Marshal(done.Result); string(got) != string(want) {
		t.Fatal("single-role resumed run differs from in-process engine")
	}
	if v := s2.sm.resumed.Value(); v != 1 {
		t.Errorf("single-role remserve_runs_resumed_total = %g, want 1", v)
	}

	// The sharded spec itself stays invalid off the coordinator role,
	// so a single-process server over its journal still fails the run.
	journal3 := filepath.Join(t.TempDir(), "journal.ndjson")
	if err := os.WriteFile(journal3, []byte(start+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts3 := newTestServerCfg(t, serverConfig{JournalPath: journal3})
	if v := getRun(t, ts3, "run-0007"); v.State != stateFailed || !strings.Contains(v.Error, "restart") {
		t.Errorf("single-role recovery of a sharded spec: state %q err %q, want failed/interrupted", v.State, v.Error)
	}
}

// TestCoordinatorResumeFromJournaledEpochs pins the mid-run resume
// path through the full stack: a sharded run's journal — start,
// interleaved assign and epoch entries, a gap from a lost epoch write,
// and a torn tail from the crash — is replayed by a fresh coordinator,
// which resumes from the last contiguous journaled barrier (not epoch
// 0), finishes with byte-identical output, and serves a complete event
// stream to clients re-reading it after the restart.
func TestCoordinatorResumeFromJournaledEpochs(t *testing.T) {
	testResumeFromJournaledEpochs(t, 2, func(journal string) (*server, *httptest.Server) {
		s, ts := newTestServerCfg(t, serverConfig{
			Role: roleCoordinator, MemberTTL: time.Hour, JournalPath: journal,
		})
		newMemberRemserve(t, s, "m0")
		newMemberRemserve(t, s, "m1")
		return s, ts
	})
}

// TestSingleRoleResumeFromJournaledEpochs is the same crash on a
// single-process server: its local run goes through the same journaled
// barrier loop, so it too resumes mid-run after a kill -9 instead of
// failing "interrupted by server restart".
func TestSingleRoleResumeFromJournaledEpochs(t *testing.T) {
	testResumeFromJournaledEpochs(t, 0, func(journal string) (*server, *httptest.Server) {
		return newTestServerCfg(t, serverConfig{JournalPath: journal})
	})
}

// testResumeFromJournaledEpochs runs the coupled spec at the given
// shard count on a server boot builds over a journal, rewrites that
// journal as a crashed process would have left it, and checks that a
// second server booted over it resumes from the last contiguous
// barrier with byte-identical output.
func testResumeFromJournaledEpochs(t *testing.T, shards int, boot func(journal string) (*server, *httptest.Server)) {
	want := directResult(t)
	journal := filepath.Join(t.TempDir(), "journal.ndjson")
	_, ts := boot(journal)

	v := postRun(t, ts, fmt.Sprintf(clusterSpecJSON, shards, false))
	waitState(t, ts, v.ID, stateDone)
	resp, err := http.Get(ts.URL + "/runs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	wantEvents, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	// Reconstruct the journal as the crashed process would have left
	// it: no end entry, a gap in the epoch history (a failed journal
	// write), and a torn trailing line.
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	epochs := 0
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var e journalEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad journal line %q: %v", line, err)
		}
		switch e.Op {
		case "end":
			continue
		case "epoch":
			epochs++
			if len(e.Loads) == 0 {
				t.Fatalf("epoch entry without loads: %q", line)
			}
			if e.Epoch == 3 {
				continue // the gap: only barriers 0..2 form a usable prefix
			}
		}
		kept = append(kept, line)
	}
	if epochs < 5 {
		t.Fatalf("run journaled only %d epoch entries; the gap scenario needs 5+", epochs)
	}
	crash := strings.Join(kept, "\n") + "\n" + `{"op":"epoch","id":"` + v.ID + `","epo`
	if err := os.WriteFile(journal, []byte(crash), 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh server over the crashed journal resumes the run.
	s2, ts2 := boot(journal)
	done := waitState(t, ts2, v.ID, stateDone)
	got, _ := json.Marshal(done.Result)
	if string(got) != string(want) {
		t.Fatal("resumed run differs from in-process engine")
	}
	if n := s2.sm.resumed.Value(); n != 1 {
		t.Errorf("remserve_runs_resumed_total = %g, want 1", n)
	}
	// Barriers 0..2 survived contiguously, so the run must have resumed
	// from barrier 2 — the epoch counter that proves it skipped 0 and
	// stopped at the gap.
	if e := s2.sm.resumeEpoch.Value(); e != 2 {
		t.Errorf("remserve_run_resume_epoch = %g, want 2", e)
	}
	// The re-emitted replayed epochs make the event stream complete and
	// byte-identical for clients re-reading it after the restart.
	resp, err = http.Get(ts2.URL + "/runs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	gotEvents, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(gotEvents) != string(wantEvents) {
		t.Errorf("resumed event stream differs (%d vs %d bytes)", len(gotEvents), len(wantEvents))
	}

	// The journal healed: the torn tail is gone, the new epoch entries
	// continue contiguously after the resumed barrier, and the run has
	// its end entry.
	data, err = os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	contiguous, ended := 0, false
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var e journalEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("journal not healed, bad line %q: %v", line, err)
		}
		switch {
		// The recover scan: the stale epoch-3-less tail is bridged by
		// the resumed run's new entries, so the contiguous prefix now
		// spans the whole history — a second crash would resume from the
		// end, not the old gap.
		case e.Op == "epoch" && e.Epoch == contiguous:
			contiguous++
		case e.Op == "end" && e.ID == v.ID:
			ended = true
			if e.State != stateDone {
				t.Errorf("end entry state %q", e.State)
			}
		}
	}
	if contiguous != epochs {
		t.Errorf("healed journal has a contiguous barrier prefix of %d, want %d", contiguous, epochs)
	}
	if !ended {
		t.Error("resumed run never journaled its end")
	}
}

// TestShardedSpecRejectedOffCoordinator pins the role check.
func TestShardedSpecRejectedOffCoordinator(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/runs", "application/json",
		strings.NewReader(fmt.Sprintf(clusterSpecJSON, 2, false)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("sharded spec on single-role server: status %d", resp.StatusCode)
	}
}

// TestClusterHeartbeatLoop exercises the member-side Heartbeat helper
// against a live coordinator remserve.
func TestClusterHeartbeatLoop(t *testing.T) {
	s, ts := newTestServerCfg(t, serverConfig{Role: roleCoordinator, MemberTTL: time.Hour})
	_, mts := newTestServerCfg(t, serverConfig{Role: roleMember})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go cluster.Heartbeat(ctx, nil, ts.URL, "hb-member", mts.URL, 10*time.Millisecond)

	deadline := time.Now().Add(5 * time.Second)
	for s.coord.LiveCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("member never joined via heartbeat")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ms := s.coord.Members()
	if len(ms) != 1 || ms[0].ID != "hb-member" || ms[0].Addr != mts.URL || !ms[0].Live {
		t.Fatalf("members = %+v", ms)
	}
}
