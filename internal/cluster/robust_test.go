package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rem/internal/chaos"
	"rem/internal/fleet"
	"rem/internal/obs"
)

// postProtocol drives one raw shard-protocol call and returns the
// response body bytes (tests compare them directly).
func postProtocol(t *testing.T, url string, in any) (int, []byte) {
	t.Helper()
	body, _ := json.Marshal(in)
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// TestMemberStepIdempotent pins the idempotent epoch protocol at the
// wire level: a duplicated step request (the coordinator's response
// was lost) returns the exact cached bytes without advancing the
// engine, and a duplicated finish returns the cached finalization.
func TestMemberStepIdempotent(t *testing.T) {
	m := NewMember()
	mux := http.NewServeMux()
	m.RegisterHandlers(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	spec := coupledSpec().Defaulted()
	code, raw := postProtocol(t, srv.URL+pathShardStart, startRequest{
		Run: "t", Shard: 0, Spec: SpecToWire(spec), Telemetry: true,
	})
	if code != http.StatusOK {
		t.Fatalf("start: %d %s", code, raw)
	}
	var sres startResponse
	if err := json.Unmarshal(raw, &sres); err != nil {
		t.Fatal(err)
	}

	loads := sres.Loads
	for epoch := 0; ; epoch++ {
		req := stepRequest{Run: "t", Shard: 0, Epoch: epoch, Loads: loads}
		code, first := postProtocol(t, srv.URL+pathShardStep, req)
		if code != http.StatusOK {
			t.Fatalf("step %d: %d %s", epoch, code, first)
		}
		// Replay the identical request: same bytes, engine untouched.
		code, second := postProtocol(t, srv.URL+pathShardStep, req)
		if code != http.StatusOK {
			t.Fatalf("replayed step %d: %d %s", epoch, code, second)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("replayed step %d returned different bytes (%d vs %d)", epoch, len(first), len(second))
		}
		var step stepResponse
		if err := json.Unmarshal(second, &step); err != nil {
			t.Fatal(err)
		}
		loads = step.Loads
		if step.Done {
			break
		}
	}
	steps := m.StepReplays()
	if steps == 0 {
		t.Error("no step answered from the idempotency cache")
	}

	// A stale epoch (two behind) is protocol drift, not a retry.
	if code, raw := postProtocol(t, srv.URL+pathShardStep, stepRequest{
		Run: "t", Shard: 0, Epoch: 0, Loads: loads,
	}); code != http.StatusConflict {
		t.Fatalf("stale epoch accepted: %d %s", code, raw)
	}

	// The conflict dropped the shard; rebuild and run to completion for
	// the finish half of the contract.
	if code, raw := postProtocol(t, srv.URL+pathShardStart, startRequest{
		Run: "t", Shard: 0, Spec: SpecToWire(spec),
	}); code != http.StatusOK {
		t.Fatalf("restart: %d %s", code, raw)
	}
	loads = sres.Loads
	for epoch := 0; ; epoch++ {
		_, raw := postProtocol(t, srv.URL+pathShardStep, stepRequest{Run: "t", Shard: 0, Epoch: epoch, Loads: loads})
		var step stepResponse
		if err := json.Unmarshal(raw, &step); err != nil {
			t.Fatal(err)
		}
		loads = step.Loads
		if step.Done {
			break
		}
	}
	code, first := postProtocol(t, srv.URL+pathShardFinish, finishRequest{Run: "t", Shard: 0})
	if code != http.StatusOK {
		t.Fatalf("finish: %d %s", code, first)
	}
	code, second := postProtocol(t, srv.URL+pathShardFinish, finishRequest{Run: "t", Shard: 0})
	if code != http.StatusOK {
		t.Fatalf("replayed finish: %d %s", code, second)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("replayed finish returned different bytes")
	}
	if m.FinishReplays() != 1 {
		t.Errorf("FinishReplays = %d, want 1", m.FinishReplays())
	}
	// The finished shard stays resident (cached response) until the
	// coordinator's post-run abort sweeps it.
	if m.Shards() != 1 {
		t.Errorf("finished shard not resident: %d shards", m.Shards())
	}
	postProtocol(t, srv.URL+pathShardAbort, abortRequest{Run: "t", Shard: 0})
	if m.Shards() != 0 {
		t.Errorf("abort left %d shards resident", m.Shards())
	}
	if m.StepReplays() != steps {
		t.Errorf("finish phase touched the step-replay counter: %d != %d", m.StepReplays(), steps)
	}
}

// TestProtocolDecodingIsStrict pins the bounded, strict request
// decoding on every member and membership endpoint. Each endpoint's
// valid body is accepted; the same body with an unknown field, padded
// past maxProtocolBody, or followed by trailing data is a 400, which
// the coordinator classifies as fatal instead of failing over in a
// loop.
func TestProtocolDecodingIsStrict(t *testing.T) {
	mux := http.NewServeMux()
	NewMember().RegisterHandlers(mux)
	NewCoordinator(Config{}).RegisterHandlers(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, tc := range []struct {
		path, valid string
		status      int // the valid body's answer
	}{
		{pathShardStart, `{"run":"t","shard":0,"spec":{"ues":1,"duration_sec":1,"dataset":"beijing-shanghai","mode":"rem"}}`, http.StatusOK},
		{pathShardStep, `{"run":"t","shard":1,"epoch":0,"loads":[0]}`, http.StatusNotFound},
		{pathShardFinish, `{"run":"t","shard":1}`, http.StatusNotFound},
		{pathShardAbort, `{"run":"t","shard":0}`, http.StatusOK},
		{pathJoin, `{"id":"m","addr":"http://m"}`, http.StatusOK},
		{pathHeartbeat, `{"id":"m","addr":"http://m"}`, http.StatusOK},
	} {
		if got := post(tc.path, tc.valid); got != tc.status {
			t.Errorf("%s valid body: status %d, want %d", tc.path, got, tc.status)
		}
		for name, body := range map[string]string{
			"unknown field":    tc.valid[:len(tc.valid)-1] + `,"bogus":1}`,
			"oversize body":    strings.Repeat(" ", maxProtocolBody) + tc.valid,
			"trailing garbage": tc.valid + "garbage",
			"second value":     tc.valid + tc.valid,
		} {
			if got := post(tc.path, body); got != http.StatusBadRequest {
				t.Errorf("%s with %s: status %d, want 400", tc.path, name, got)
			}
		}
	}
	if classifyStatus(http.StatusBadRequest) != FailFatal {
		t.Error("a 400 must be fatal, not a failover")
	}
}

// TestClusterByteIdenticalUnderChaos runs the coupled spec at shards 2
// and 4 with a seeded fault plan on the coordinator's transport —
// dropped requests, dropped responses (the idempotency-critical
// class), torn bodies and a hard partition window — and requires the
// merged result, snapshot, event stream and timeline to stay
// byte-identical to the single-process run. The stats assertions make
// sure the pass is not vacuous: every fault class must actually fire.
func TestClusterByteIdenticalUnderChaos(t *testing.T) {
	spec := coupledSpec()
	wantRes, wantSnap, _, wantEvents, wantTimeline := singleProcess(t, spec)
	wantEvJS, _ := json.Marshal(wantEvents)
	wantTlJS, _ := json.Marshal(wantTimeline)

	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ct := chaos.NewTransport(nil, chaos.Plan{
				Seed:           int64(shards), // distinct schedule per subtest
				DropRequest:    0.15,
				DropResponse:   0.15,
				Truncate:       0.12,
				PartitionStart: 6,
				PartitionLen:   4,
			})
			c := NewCoordinator(Config{
				MemberTTL: time.Hour, MemberWait: 5 * time.Second,
				CallRetries: 8, RetrySeed: 42,
				HTTPClient: &http.Client{Transport: ct},
			})
			c.Register("m0", newMemberServer(t).URL)
			c.Register("m1", newMemberServer(t).URL)

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
				t.Fatalf("run under chaos: %v", err)
			}
			if gotRes, _ := json.Marshal(art.Result); string(gotRes) != string(wantRes) {
				t.Error("result differs from single process under chaos")
			}
			if gotSnap, _ := json.Marshal(art.Snapshot); string(gotSnap) != string(wantSnap) {
				t.Error("metrics snapshot differs from single process under chaos")
			}
			if gotEv, _ := json.Marshal(events); string(gotEv) != string(wantEvJS) {
				t.Error("event stream differs from single process under chaos")
			}
			if gotTl, _ := json.Marshal(timeline); string(gotTl) != string(wantTlJS) {
				t.Error("timeline differs from single process under chaos")
			}

			st := ct.Stats()
			if st.Faults[chaos.FaultPartition] != 4 {
				t.Errorf("partition window injected %d faults, want 4", st.Faults[chaos.FaultPartition])
			}
			for _, f := range []chaos.Fault{chaos.FaultDropRequest, chaos.FaultDropResponse, chaos.FaultTruncate} {
				if st.Faults[f] == 0 {
					t.Errorf("fault class %s never fired (%d requests) — chaos pass is vacuous", f, st.Requests)
				}
			}
		})
	}
}

// stragglerMember fronts a member and holds every step call long
// enough to blow the coordinator's barrier deadline.
type stragglerMember struct {
	h     http.Handler
	hold  time.Duration
	holds atomic.Int64
}

func (s *stragglerMember) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == pathShardStep {
		s.holds.Add(1)
		time.Sleep(s.hold)
	}
	s.h.ServeHTTP(w, r)
}

// TestStragglerReassignedAtBarrierDeadline pins the deadline-driven
// failover: a member that cannot clear the epoch barrier within the
// deadline is treated as lost — its shard moves to a healthy member
// and the merged output stays byte-identical, instead of every shard
// stalling behind the straggler.
func TestStragglerReassignedAtBarrierDeadline(t *testing.T) {
	spec := coupledSpec()
	want, err := fleet.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	wantJS, _ := json.Marshal(want)

	healthy := newMemberServer(t)
	mux := http.NewServeMux()
	NewMember().RegisterHandlers(mux)
	slow := &stragglerMember{h: mux, hold: 2 * time.Second}
	slowSrv := httptest.NewServer(slow)
	t.Cleanup(slowSrv.Close)

	c := NewCoordinator(Config{
		MemberTTL: time.Hour, MemberWait: 5 * time.Second,
		BarrierDeadline: 150 * time.Millisecond,
	})
	c.Register("fast", healthy.URL)
	c.Register("slow", slowSrv.URL)

	start := time.Now()
	art, err := c.RunFleet(context.Background(), spec, RunOptions{RunID: "t", Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if gotJS, _ := json.Marshal(art.Result); string(gotJS) != string(wantJS) {
		t.Error("result differs after straggler reassignment")
	}
	if slow.holds.Load() == 0 {
		t.Fatal("straggler never held a step — deadline path untested")
	}
	sawReassign := false
	for _, a := range art.Assignments {
		if a.Reassigned {
			sawReassign = true
			if a.Member == "slow" {
				t.Errorf("shard reassigned back onto the straggler: %+v", a)
			}
		}
	}
	if !sawReassign {
		t.Error("straggler's shard was never reassigned")
	}
	for _, m := range c.Members() {
		if m.ID == "slow" && m.Live {
			t.Error("straggler still counted live")
		}
	}
	// The whole run must complete in straggler-free time plus one blown
	// deadline, not serialize behind the slow member's holds.
	if elapsed := time.Since(start); elapsed > slow.hold*2 {
		t.Errorf("run took %s — barrier stalled behind the straggler", elapsed)
	}
}

// TestHeartbeatMissesReported pins the heartbeat hardening: a beat
// that fails all its in-tick retries is surfaced through OnMiss with a
// consecutive count, and a successful beat resets the count — send
// failures are no longer swallowed silently.
func TestHeartbeatMissesReported(t *testing.T) {
	var failing atomic.Bool
	var beats atomic.Int64
	c := NewCoordinator(Config{MemberTTL: time.Hour})
	mux := http.NewServeMux()
	c.RegisterHandlers(mux)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			http.Error(w, `{"error":"injected outage"}`, http.StatusServiceUnavailable)
			return
		}
		if r.URL.Path == pathHeartbeat {
			beats.Add(1)
		}
		mux.ServeHTTP(w, r)
	}))
	defer srv.Close()

	misses := make(chan int, 64)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go HeartbeatWithOpts(ctx, nil, srv.URL, "hb", "http://member", HeartbeatOpts{
		Interval: 5 * time.Millisecond,
		Retries:  1,
		OnMiss:   func(consecutive int, err error) { misses <- consecutive },
	})

	waitBeat := func(past int64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for beats.Load() <= past {
			if time.Now().After(deadline) {
				t.Fatal("heartbeat never succeeded")
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitBeat(0)
	failing.Store(true)
	for _, want := range []int{1, 2, 3} {
		select {
		case got := <-misses:
			if got != want {
				t.Fatalf("consecutive miss count = %d, want %d", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("OnMiss never fired during the outage")
		}
	}
	// Heal: a successful beat must reset the consecutive count. OnMiss
	// fires synchronously before the loop's next tick, so once a fresh
	// beat lands every stale miss is already enqueued — drain then.
	failing.Store(false)
	waitBeat(beats.Load())
	for len(misses) > 0 {
		<-misses
	}
	failing.Store(true)
	select {
	case got := <-misses:
		if got != 1 {
			t.Fatalf("first miss after recovery counted %d, want 1", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OnMiss never fired after recovery")
	}
}

// TestClusterResumeFromBarrierHistory pins mid-run coordinator resume
// at the package level: a fresh coordinator seeded with a prefix of a
// completed run's barrier history continues from that barrier — not
// epoch 0 — re-emits the replayed epochs' streams byte-identically,
// and merges the exact single-process result. Prefix length 1 (only
// barrier 0 journaled) and the full history (crash after the last
// barrier) are the edge cases.
func TestClusterResumeFromBarrierHistory(t *testing.T) {
	spec := coupledSpec()
	wantRes, wantSnap, _, wantEvents, wantTimeline := singleProcess(t, spec)
	wantEvJS, _ := json.Marshal(wantEvents)
	wantTlJS, _ := json.Marshal(wantTimeline)

	// Reference clustered run, capturing the barrier history exactly as
	// a journal would.
	var hist [][]int
	c := newTestCoordinator(newMemberServer(t), newMemberServer(t))
	ref, err := c.RunFleet(context.Background(), spec, RunOptions{
		RunID: "t", Shards: 2, Telemetry: true,
		Hooks: RunHooks{OnBarrier: func(index int, loads []int) {
			if index != len(hist) {
				t.Errorf("barrier %d reported out of order (have %d)", index, len(hist))
			}
			hist = append(hist, append([]int(nil), loads...))
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ref.ResumedFrom != 0 {
		t.Fatalf("fresh run claims ResumedFrom %d", ref.ResumedFrom)
	}
	if len(hist) != ref.Epochs+1 {
		t.Fatalf("captured %d barriers for %d epochs, want %d", len(hist), ref.Epochs, ref.Epochs+1)
	}

	for _, prefix := range []int{1, len(hist) / 2, len(hist)} {
		t.Run(fmt.Sprintf("barriers=%d", prefix), func(t *testing.T) {
			c := newTestCoordinator(newMemberServer(t), newMemberServer(t))
			var events []fleet.Event
			var timeline []obs.Event
			var newBarriers []int
			art, err := c.RunFleet(context.Background(), spec, RunOptions{
				RunID: "t", Shards: 2, Telemetry: true,
				Resume: &Resume{LoadHist: hist[:prefix]},
				Hooks: RunHooks{
					OnEvents:   func(evs []fleet.Event) { events = append(events, evs...) },
					OnTimeline: func(evs []obs.Event) { timeline = append(timeline, evs...) },
					OnBarrier:  func(index int, _ []int) { newBarriers = append(newBarriers, index) },
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if want := prefix - 1; art.ResumedFrom != want {
				t.Errorf("ResumedFrom = %d, want %d", art.ResumedFrom, want)
			}
			if art.Epochs != ref.Epochs {
				t.Errorf("resumed run counts %d epochs, want %d", art.Epochs, ref.Epochs)
			}
			if gotRes, _ := json.Marshal(art.Result); string(gotRes) != string(wantRes) {
				t.Error("resumed result differs from single process")
			}
			if gotSnap, _ := json.Marshal(art.Snapshot); string(gotSnap) != string(wantSnap) {
				t.Error("resumed metrics snapshot differs from single process")
			}
			// The streams must be complete — replayed epochs re-emitted —
			// and byte-identical, so a client re-reading them after the
			// restart cannot tell the run was interrupted.
			if gotEv, _ := json.Marshal(events); string(gotEv) != string(wantEvJS) {
				t.Errorf("resumed event stream differs (%d vs %d events)", len(events), len(wantEvents))
			}
			if gotTl, _ := json.Marshal(timeline); string(gotTl) != string(wantTlJS) {
				t.Errorf("resumed timeline differs (%d vs %d events)", len(timeline), len(wantTimeline))
			}
			// Only newly reached barriers are reported, continuing the
			// journal contiguously after the seeded prefix.
			for i, idx := range newBarriers {
				if want := prefix + i; idx != want {
					t.Fatalf("new barrier %d reported as index %d, want %d", i, idx, want)
				}
			}
			if wantNew := len(hist) - prefix; len(newBarriers) != wantNew {
				t.Errorf("resumed run reported %d new barriers, want %d", len(newBarriers), wantNew)
			}
		})
	}

	// A history that does not match the spec is rejected, not silently
	// diverging.
	bad := [][]int{append([]int(nil), hist[0]...)}
	bad[0][0] += 3
	c2 := newTestCoordinator(newMemberServer(t))
	if _, err := c2.RunFleet(context.Background(), spec, RunOptions{
		RunID: "t", Shards: 2, Resume: &Resume{LoadHist: bad},
	}); err == nil || !strings.Contains(err.Error(), "does not match spec") {
		t.Errorf("mismatched resume history accepted: %v", err)
	}
}
