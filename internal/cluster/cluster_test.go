package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rem/internal/fault"
	"rem/internal/fleet"
	"rem/internal/obs"
	"rem/internal/trace"
	"rem/internal/transport"
)

// coupledSpec has admission coupling (capacity + spreading), so every
// shard's handover decisions depend on fleet-wide loads: byte-identity
// at shards > 1 proves the epoch-locked global load exchange, not just
// independent per-UE determinism.
func coupledSpec() fleet.Spec {
	return fleet.Spec{
		UEs: 60, Dataset: trace.BeijingShanghai, Mode: trace.REM,
		SpeedKmh: 330, DurationSec: 2, Seed: 7,
		CellCapacity: 12, SpreadMarginDB: 3,
	}
}

// singleProcess runs spec in-process with every observation hook armed
// and returns the comparison artifacts.
func singleProcess(t *testing.T, spec fleet.Spec) (resJS, snapJS []byte, prom []byte, events []fleet.Event, timeline []obs.Event) {
	t.Helper()
	tel := obs.New(obs.Config{})
	res, err := fleet.RunWithOptions(context.Background(), spec, fleet.Options{
		Telemetry: tel,
		Observer:  func(ev fleet.Event) { events = append(events, ev) },
		OnTimeline: func(evs []obs.Event) {
			timeline = append(timeline, evs...)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := tel.Snapshot()
	resJS, _ = json.Marshal(res)
	snapJS, _ = json.Marshal(snap)
	return resJS, snapJS, snap.PrometheusText(), events, timeline
}

// newMemberServer mounts a fresh Member on an httptest server.
func newMemberServer(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	NewMember().RegisterHandlers(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func newTestCoordinator(members ...*httptest.Server) *Coordinator {
	c := NewCoordinator(Config{MemberTTL: time.Hour, MemberWait: 5 * time.Second})
	for i, m := range members {
		c.Register(fmt.Sprintf("m%d", i), m.URL)
	}
	return c
}

// TestClusterMatchesSingleProcess pins the tentpole contract: a run
// sharded 1, 2 and 4 ways across two member processes produces the
// same result JSON, metrics snapshot, Prometheus text, event stream
// and telemetry timeline as the single-process engine, byte for byte.
func TestClusterMatchesSingleProcess(t *testing.T) {
	spec := coupledSpec()
	wantRes, wantSnap, wantProm, wantEvents, wantTimeline := singleProcess(t, spec)
	wantEvJS, _ := json.Marshal(wantEvents)
	wantTlJS, _ := json.Marshal(wantTimeline)

	for _, shards := range []int{0, 1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c := newTestCoordinator(newMemberServer(t), newMemberServer(t))
			var events []fleet.Event
			var timeline []obs.Event
			art, err := c.RunFleet(context.Background(), spec, RunOptions{
				RunID: "t", Shards: shards, Telemetry: true,
				Hooks: RunHooks{
					OnEvents:   func(evs []fleet.Event) { events = append(events, evs...) },
					OnTimeline: func(evs []obs.Event) { timeline = append(timeline, evs...) },
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if gotRes, _ := json.Marshal(art.Result); string(gotRes) != string(wantRes) {
				t.Errorf("result JSON differs from single process (%d vs %d bytes)", len(gotRes), len(wantRes))
			}
			if gotSnap, _ := json.Marshal(art.Snapshot); string(gotSnap) != string(wantSnap) {
				t.Errorf("metrics snapshot differs from single process")
			}
			if got := art.Snapshot.PrometheusText(); string(got) != string(wantProm) {
				t.Errorf("Prometheus exposition differs from single process")
			}
			if gotEv, _ := json.Marshal(events); string(gotEv) != string(wantEvJS) {
				t.Errorf("event stream differs from single process (%d vs %d events)", len(events), len(wantEvents))
			}
			if gotTl, _ := json.Marshal(timeline); string(gotTl) != string(wantTlJS) {
				t.Errorf("timeline differs from single process (%d vs %d events)", len(timeline), len(wantTimeline))
			}
			if want := max(shards, 1); len(art.Assignments) != want {
				t.Errorf("expected %d assignments (no failover), got %d", want, len(art.Assignments))
			}
		})
	}
}

// TestInProcessRunKeepsUEOffset pins the in-process path (Shards 0)
// on a coordinator with no members at all: a spec covering a global
// UE range that starts past 0 runs without waiting for the registry
// and matches the single-process engine byte for byte, as does the
// same range sharded across members.
func TestInProcessRunKeepsUEOffset(t *testing.T) {
	spec := coupledSpec()
	spec.UEOffset = 40
	wantRes, wantSnap, _, wantEvents, wantTimeline := singleProcess(t, spec)
	wantEvJS, _ := json.Marshal(wantEvents)
	wantTlJS, _ := json.Marshal(wantTimeline)

	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c := NewCoordinator(Config{MemberTTL: time.Hour, MemberWait: 50 * time.Millisecond})
			if shards > 0 {
				c.Register("m0", newMemberServer(t).URL)
				c.Register("m1", newMemberServer(t).URL)
			}
			var events []fleet.Event
			var timeline []obs.Event
			art, err := c.RunFleet(context.Background(), spec, RunOptions{
				RunID: "t", Shards: shards, Telemetry: true,
				Hooks: RunHooks{
					OnEvents:   func(evs []fleet.Event) { events = append(events, evs...) },
					OnTimeline: func(evs []obs.Event) { timeline = append(timeline, evs...) },
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if gotRes, _ := json.Marshal(art.Result); string(gotRes) != string(wantRes) {
				t.Error("result JSON differs from single process")
			}
			if gotSnap, _ := json.Marshal(art.Snapshot); string(gotSnap) != string(wantSnap) {
				t.Error("metrics snapshot differs from single process")
			}
			if gotEv, _ := json.Marshal(events); string(gotEv) != string(wantEvJS) {
				t.Error("event stream differs from single process")
			}
			if gotTl, _ := json.Marshal(timeline); string(gotTl) != string(wantTlJS) {
				t.Error("timeline differs from single process")
			}
			if shards > 0 {
				return
			}
			if len(art.Assignments) != 1 || art.Assignments[0].Member != localMemberID {
				t.Errorf("in-process run assignments = %+v, want one on %q", art.Assignments, localMemberID)
			}
			if n := c.local.Shards(); n != 0 {
				t.Errorf("in-process run left %d shards resident on the private member", n)
			}
		})
	}
}

// flakyMember proxies a member and starts refusing shard calls after
// the trip count of steps, simulating a member lost mid-run.
type flakyMember struct {
	h     http.Handler
	steps atomic.Int64
	trip  int64
}

func (f *flakyMember) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/cluster/v1/shard/") && f.steps.Load() >= f.trip {
		http.Error(w, `{"error":"injected member failure"}`, http.StatusServiceUnavailable)
		return
	}
	if r.URL.Path == pathShardStep {
		f.steps.Add(1)
	}
	f.h.ServeHTTP(w, r)
}

// TestClusterFailoverIsByteIdentical kills one member after two epoch
// steps: its shard must be reassigned, replayed from the recorded load
// history and the merged output must still be byte-identical, with the
// failover visible in the assignment history.
func TestClusterFailoverIsByteIdentical(t *testing.T) {
	spec := coupledSpec()
	wantRes, wantSnap, _, wantEvents, _ := singleProcess(t, spec)
	wantEvJS, _ := json.Marshal(wantEvents)

	healthy := newMemberServer(t)
	mux := http.NewServeMux()
	NewMember().RegisterHandlers(mux)
	flaky := &flakyMember{h: mux, trip: 2}
	flakySrv := httptest.NewServer(flaky)
	t.Cleanup(flakySrv.Close)

	c := NewCoordinator(Config{MemberTTL: time.Hour, MemberWait: 5 * time.Second})
	c.Register("good", healthy.URL)
	c.Register("shaky", flakySrv.URL)

	var events []fleet.Event
	art, err := c.RunFleet(context.Background(), spec, RunOptions{
		RunID: "t", Shards: 2, Telemetry: true,
		Hooks: RunHooks{
			OnEvents: func(evs []fleet.Event) { events = append(events, evs...) },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if gotRes, _ := json.Marshal(art.Result); string(gotRes) != string(wantRes) {
		t.Errorf("result JSON differs after failover")
	}
	if gotSnap, _ := json.Marshal(art.Snapshot); string(gotSnap) != string(wantSnap) {
		t.Errorf("metrics snapshot differs after failover")
	}
	if gotEv, _ := json.Marshal(events); string(gotEv) != string(wantEvJS) {
		t.Errorf("event stream differs after failover")
	}
	if len(art.Assignments) <= 2 {
		t.Fatalf("expected reassignments beyond the initial 2, got %v", art.Assignments)
	}
	sawFailover := false
	for _, a := range art.Assignments {
		if a.Reassigned {
			sawFailover = true
			if a.Member == "shaky" {
				t.Errorf("shard reassigned back to the dead member: %+v", a)
			}
		}
	}
	if !sawFailover {
		t.Error("no assignment marked Reassigned")
	}
	// The dead member must be out of the live set.
	for _, m := range c.Members() {
		if m.ID == "shaky" && m.Live {
			t.Error("failed member still live")
		}
	}
}

// TestClusterManyShardsFewMembers round-robins 4 shards over one
// member and still merges byte-identically (disarmed path).
func TestClusterManyShardsFewMembers(t *testing.T) {
	spec := coupledSpec()
	want, err := fleet.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	wantJS, _ := json.Marshal(want)
	c := newTestCoordinator(newMemberServer(t))
	art, err := c.RunFleet(context.Background(), spec, RunOptions{RunID: "t", Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if art.Snapshot != nil {
		t.Error("disarmed run produced a snapshot")
	}
	if gotJS, _ := json.Marshal(art.Result); string(gotJS) != string(wantJS) {
		t.Error("merged result differs from single process")
	}
}

func TestPartitionUEs(t *testing.T) {
	cases := []struct {
		ues, n int
		want   []Range
	}{
		{10, 1, []Range{{0, 10}}},
		{10, 3, []Range{{0, 4}, {4, 3}, {7, 3}}},
		{4, 4, []Range{{0, 1}, {1, 1}, {2, 1}, {3, 1}}},
	}
	for _, tc := range cases {
		got := PartitionUEs(tc.ues, tc.n)
		gotJS, _ := json.Marshal(got)
		wantJS, _ := json.Marshal(tc.want)
		if string(gotJS) != string(wantJS) {
			t.Errorf("PartitionUEs(%d,%d) = %s, want %s", tc.ues, tc.n, gotJS, wantJS)
		}
	}
}

// TestWireSpecRoundTrip pins the dataset/mode string mapping.
func TestWireSpecRoundTrip(t *testing.T) {
	spec := coupledSpec()
	js, _ := json.Marshal(SpecToWire(spec))
	var w WireSpec
	if err := json.Unmarshal(js, &w); err != nil {
		t.Fatal(err)
	}
	back, err := w.ToFleet()
	if err != nil {
		t.Fatal(err)
	}
	if back != spec {
		t.Fatalf("round-trip drifted:\n got %+v\nwant %+v", back, spec)
	}
}

// transportCoupledSpec arms the per-UE transport plane on the coupled
// spec, in legacy mode with a 2 s all-cells blackout so every shard
// ships real stall/down totals over the wire (a short REM run is too
// reliable to produce any).
func transportCoupledSpec() fleet.Spec {
	spec := coupledSpec()
	spec.Mode = trace.Legacy
	spec.DurationSec = 4
	spec.Faults = &fault.Plan{
		Name:    "transport-blackout",
		Outages: []fault.CellOutage{{Cell: fault.AllCells, Start: 1, End: 2.5}},
	}
	spec.Transport = &transport.Spec{Controller: "gcc", Workload: "video", StartRateMbps: 4}
	return spec
}

// TestClusterTransportMatchesSingleProcess extends the byte-identity
// contract to transport-armed runs: per-UE transport totals ship over
// the shard wire, the coordinator re-folds them in global UE order, and
// the merged result, snapshot and Prometheus text match the
// single-process engine exactly at shards 1 and 2.
func TestClusterTransportMatchesSingleProcess(t *testing.T) {
	spec := transportCoupledSpec()
	wantRes, wantSnap, wantProm, _, _ := singleProcess(t, spec)

	// The single-process run must actually exercise the stall path,
	// or byte-identity proves nothing about the transport fold.
	var single fleet.Result
	if err := json.Unmarshal(wantRes, &single); err != nil {
		t.Fatal(err)
	}
	if single.Summary.Transport == nil || single.Summary.Transport.Stalls == 0 {
		t.Fatalf("spec produced no transport stalls: %+v", single.Summary.Transport)
	}

	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c := newTestCoordinator(newMemberServer(t), newMemberServer(t))
			art, err := c.RunFleet(context.Background(), spec, RunOptions{
				RunID: "tp", Shards: shards, Telemetry: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if gotRes, _ := json.Marshal(art.Result); string(gotRes) != string(wantRes) {
				t.Errorf("result JSON differs from single process (%d vs %d bytes)", len(gotRes), len(wantRes))
			}
			if gotSnap, _ := json.Marshal(art.Snapshot); string(gotSnap) != string(wantSnap) {
				t.Errorf("metrics snapshot differs from single process")
			}
			if got := art.Snapshot.PrometheusText(); string(got) != string(wantProm) {
				t.Errorf("Prometheus exposition differs from single process")
			}
		})
	}
}
