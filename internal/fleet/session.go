package fleet

import (
	"fmt"

	"rem/internal/core"
	"rem/internal/mobility"
	"rem/internal/obs"
	"rem/internal/transport"
)

// sessState is one UE's fleet-side bookkeeping, stored flat in the
// engine's sess slice (the runner itself lives in the parallel runners
// slice). A session is stepped by exactly one worker at a time; the
// admission hook writes only this UE's slots.
type sessState struct {
	seed int64

	// Consumed prefix lengths of the accumulating result slices.
	hoSeen, failSeen int
	// pending collects this epoch's blocked (admission-deferred)
	// events, appended by the SelectTarget hook while stepping. The
	// buffer is reset, not freed, at each barrier.
	pending []Event
	// wasAttached tracks outage recovery so reattaches are reported.
	wasAttached bool
	lastServing int

	// cands is the UE's reusable packed admission candidate list.
	cands core.PackedCandidates

	// scope is the UE's telemetry scope (nil when disarmed); spread is
	// the resolved load-spreading counter handle (nil-safe).
	scope  *obs.UEScope
	spread *obs.Counter

	// tp is the UE's transport flow (nil when the transport plane is
	// disarmed); tpSeen is the consumed prefix of the runner's recorded
	// link trace (LinkDown/SNRTrace intervals already fed to the flow).
	tp     *transport.UE
	tpSeen int
}

// buildSession assembles UE ue in place: its scenario over the shared
// world, the admission hook, and the runner slot in the packed runners
// slice. Runs on a pool worker; writes only index ue.
func (e *Engine) buildSession(ue int) error {
	// Everything identity-derived — substrate, seed, telemetry scope,
	// emitted events — uses the global UE id, so a UEOffset shard is
	// byte-identical to the same id range of an unsharded run.
	gue := e.spec.UEOffset + ue
	built, err := e.shared.BuildUEIn(e.arena, gue)
	if err != nil {
		return fmt.Errorf("fleet: build UE %d: %w", gue, err)
	}
	ss := &e.sess[ue]
	ss.seed = e.shared.UESeed(gue)
	if e.tel != nil {
		// Scope creation races between session builders are fine: the
		// Telemetry locks, and every merge sorts by scope ID.
		ss.scope = e.tel.Scope(gue)
		ss.spread = ss.scope.Shard.Counter(obs.MSpreadPicks)
		built.Scenario.Obs = ss.scope
	}
	built.Scenario.Cfg.FullSnapshotInOutage = e.opts.fullSnapshotInOutage
	// Load-aware admission: the hook sees the engine's frozen
	// epoch-boundary loads, so its decisions are independent of worker
	// scheduling. Deferrals are recorded session-locally and published
	// at the barrier.
	built.Scenario.SelectTarget = func(t float64, serving int, cands []mobility.Candidate) (int, bool) {
		loads := e.loads
		pc := &ss.cands
		pc.Reset()
		for _, c := range cands {
			load := 0
			if c.CellID >= 0 && c.CellID < len(loads) {
				load = loads[c.CellID]
			}
			pc.Append(c.CellID, c.Metric, load)
		}
		d := e.adm.DecidePacked(pc)
		if d.OK && d.Spread {
			ss.spread.Inc()
		}
		if !d.OK && len(cands) > 0 {
			ss.pending = append(ss.pending, Event{
				UE: gue, Time: t, Type: EventBlocked,
				From: serving, To: cands[0].CellID,
			})
		}
		return d.Target, d.OK
	}
	if tspec := e.spec.Transport; tspec != nil {
		// The transport stream is named, so arming it never perturbs any
		// other stream's draws; the budget covers two draws per 0.1 s
		// interval with Gauss headroom (see transport.DrawBudget).
		rng := built.Streams.StreamBudget(transport.StreamLink,
			transport.DrawBudget(e.spec.DurationSec))
		ss.tp = transport.NewUE(*tspec, rng)
	}
	if err := mobility.InitRunner(&e.runners[ue], built.Streams, built.Scenario); err != nil {
		return fmt.Errorf("fleet: UE %d: %w", gue, err)
	}
	ss.wasAttached = true
	ss.lastServing = e.runners[ue].Serving()
	return nil
}

// stepHook, when non-nil, runs before each session step. It exists so
// tests can inject a failure into an epoch worker and prove the panic
// surfaces as an error instead of killing the process. Setting it also
// forces per-UE stepping instead of the batched fast path.
var stepHook func(ue int)

// drainEvents appends everything UE i's last epoch produced — new
// handovers, failures, admission deferrals, and a post-outage reattach
// — to the engine's pooled epoch batch, and marks it consumed. Called
// at the barrier (single goroutine). Events are appended unsorted; the
// barrier's single stable (time, UE) sort fixes the canonical order.
func (e *Engine) drainEvents(i int) {
	ss := &e.sess[i]
	r := &e.runners[i]
	gue := e.spec.UEOffset + i
	res := r.Result()
	for _, h := range res.Handovers[ss.hoSeen:] {
		e.epochEvents = append(e.epochEvents, Event{
			UE: gue, Time: h.Time, Type: EventHandover,
			From: h.From, To: h.To,
		})
	}
	ss.hoSeen = len(res.Handovers)
	for _, f := range res.Failures[ss.failSeen:] {
		e.epochEvents = append(e.epochEvents, Event{
			UE: gue, Time: f.Time, Type: EventFailure,
			From: f.Serving, Cause: f.Cause.String(),
		})
	}
	ss.failSeen = len(res.Failures)
	e.epochEvents = append(e.epochEvents, ss.pending...)
	ss.pending = ss.pending[:0]

	// Reattach after an outage: the runner silently switched serving
	// cells during re-establishment; surface it as an event so cell
	// attach counts stay explainable.
	attached := r.Attached()
	serving := r.Serving()
	if attached && !ss.wasAttached {
		e.epochEvents = append(e.epochEvents, Event{
			UE: gue, Time: r.Now(), Type: EventReattach,
			From: ss.lastServing, To: serving,
		})
	}
	ss.wasAttached = attached
	ss.lastServing = serving
}
