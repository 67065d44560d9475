package obs

import (
	"cmp"
	"slices"
	"sort"
	"sync"
)

// Canonical run-metric names: the schema every armed simulation run
// exports. Consumers resolve handles once by these names.
const (
	MHandovers       = "rem_handovers_total"
	MFailures        = "rem_failures_total" // labeled by cause
	MReportsOK       = "rem_reports_delivered_total"
	MReportsLost     = "rem_reports_lost_total"
	MCmdsOK          = "rem_cmds_delivered_total"
	MCmdsLost        = "rem_cmds_lost_total"
	MFaultDropped    = "rem_fault_dropped_total"
	MFaultCorrupted  = "rem_fault_corrupted_total"
	MFaultDelayed    = "rem_fault_delayed_total"
	MDeferrals       = "rem_deferrals_total"
	MSpreadPicks     = "rem_spread_selections_total"
	MReattaches      = "rem_reattaches_total"
	MMeasTriggers    = "rem_meas_triggers_total"
	MFeedbackDelay   = "rem_feedback_delay_seconds"
	MBlackout        = "rem_blackout_seconds"
	MTCPStalls       = "rem_tcp_stalls_total"
	MTCPStall        = "rem_tcp_stall_seconds"
	MTPDelivered     = "rem_transport_delivered_mbit_total"
	MTPStalls        = "rem_transport_stalls_total"
	MTPStall         = "rem_transport_stall_seconds"
	MTPRebuffers     = "rem_transport_rebuffers_total"
	MTPGoodput       = "rem_transport_goodput_mbps"
	MEpochs          = "rem_epochs_total"
	MTimelineEvents  = "rem_timeline_events_total"
	MTimelineDropped = "rem_timeline_dropped_total"
	MAttachedUEs     = "rem_attached_ues"
	MSimTime         = "rem_sim_time_seconds"
)

// FailureCauses are the label values of rem_failures_total, mirroring
// mobility's Table 2 taxonomy (cross-checked by a mobility test so the
// two cannot drift apart silently).
var FailureCauses = []string{
	"feedback-delay/loss",
	"missed-cell",
	"ho-cmd-loss",
	"coverage-hole",
}

// FailureSeries returns the full series name for one failure cause.
func FailureSeries(cause string) string {
	return MFailures + `{cause="` + cause + `"}`
}

// Fixed histogram bounds (seconds). Part of the exposition schema:
// changing them changes snapshot bytes.
var (
	FeedbackDelayBuckets = []float64{0.05, 0.1, 0.2, 0.5, 1, 2, 5}
	BlackoutBuckets      = []float64{0.5, 1, 2, 5, 10, 30}
	TCPStallBuckets      = []float64{0.5, 1, 2, 5, 10, 30, 60}
	TPStallBuckets       = []float64{0.5, 1, 2, 5, 10, 30, 60}
	TPGoodputBuckets     = []float64{0.5, 1, 2, 5, 10, 20, 50}
)

// RegisterRunMetrics installs the canonical run schema on a registry.
func RegisterRunMetrics(g *Registry) {
	g.Counter(MHandovers, "Handovers executed.")
	for _, c := range FailureCauses {
		g.CounterWith(MFailures, `cause="`+c+`"`, "Radio link failures by Table 2 cause.")
	}
	g.Counter(MReportsOK, "Uplink measurement reports delivered.")
	g.Counter(MReportsLost, "Uplink measurement reports lost (PHY or fault plane).")
	g.Counter(MCmdsOK, "Downlink handover commands delivered.")
	g.Counter(MCmdsLost, "Downlink handover commands lost (PHY or fault plane).")
	g.Counter(MFaultDropped, "Signaling messages dropped by the fault injector.")
	g.Counter(MFaultCorrupted, "Signaling messages fatally corrupted by the fault injector.")
	g.Counter(MFaultDelayed, "Signaling messages delayed by the fault injector.")
	g.Counter(MDeferrals, "Handovers deferred by load-aware admission.")
	g.Counter(MSpreadPicks, "Admissions where load spreading overrode the strongest cell.")
	g.Counter(MReattaches, "Post-outage re-establishment attaches.")
	g.Counter(MMeasTriggers, "Measurement rules whose time-to-trigger elapsed.")
	g.Histogram(MFeedbackDelay, "End-to-end triggering feedback delay (criterion true to report delivered).", FeedbackDelayBuckets)
	g.Histogram(MBlackout, "Service blackout duration (RLF to re-establishment).", BlackoutBuckets)
	g.Counter(MTCPStalls, "TCP stalls replayed over radio outages.")
	g.Histogram(MTCPStall, "TCP stall duration (outage plus residual RTO wait).", TCPStallBuckets)
	g.Counter(MEpochs, "Fleet epochs completed.")
	g.Counter(MTimelineEvents, "Timeline events published.")
	g.Counter(MTimelineDropped, "Timeline events overwritten before a drain (ring overflow).")
	g.Gauge(MAttachedUEs, "UEs currently holding a radio link.")
	g.Gauge(MSimTime, "Simulated seconds completed.")
}

// RegisterTransportMetrics extends a registry with the transport-plane
// schema. It is an opt-in extension — only transport-armed runs call
// it, so disarmed snapshots keep their pre-transport byte shape — and
// idempotent, skipping series already present. It must run before any
// shard is created (same rule as all registration).
func RegisterTransportMetrics(g *Registry) {
	if g.Has(MTPDelivered) {
		return
	}
	g.Counter(MTPDelivered, "Transport payload delivered to applications (Mbit).")
	g.Counter(MTPStalls, "Transport link stalls (outage plus residual RTO wait).")
	g.Histogram(MTPStall, "Transport link stall duration.", TPStallBuckets)
	g.Counter(MTPRebuffers, "Video workload rebuffer onsets.")
	g.Histogram(MTPGoodput, "Per-UE transport goodput.", TPGoodputBuckets)
}

// RunScope is the scope ID for run-level (non-UE) metrics.
const RunScope = -1

// Config parameterizes a Telemetry.
type Config struct {
	// RingCap bounds each scope's event ring (default 4096). Fleet
	// runs drain rings every epoch, so the cap bounds per-epoch burst,
	// not run length; single-run CLIs drain once at the end and may
	// want a larger cap. Overflow drops the oldest events (counted).
	RingCap int
}

// Telemetry is one armed run's observability state: the metrics
// registry plus the per-UE event scopes. The zero of everything is
// disarmed — a nil *Telemetry hands out nil scopes whose recorders
// and handles no-op.
type Telemetry struct {
	// Registry carries the canonical run-metric schema.
	Registry *Registry

	ringCap int
	mu      sync.Mutex
	scopes  map[int]*UEScope
	// sorted caches the ascending-ID scope order so per-epoch drains do
	// not re-sort; invalidated when Scope creates a new entry.
	sorted []*UEScope
	dirty  bool
}

// New builds an armed Telemetry with the canonical run schema.
func New(cfg Config) *Telemetry {
	if cfg.RingCap <= 0 {
		cfg.RingCap = 4096
	}
	reg := NewRegistry()
	RegisterRunMetrics(reg)
	return &Telemetry{Registry: reg, ringCap: cfg.RingCap, scopes: make(map[int]*UEScope)}
}

// UEScope is one scope's writer handles: its event recorder and its
// metrics shard. All methods tolerate a nil receiver.
type UEScope struct {
	Rec   *Recorder
	Shard *Shard
}

// Scope returns (creating on first use) the scope for a UE index.
// Safe to call from concurrent session builders: creation order does
// not matter because every merge sorts by scope ID. A nil Telemetry
// returns a nil scope.
func (t *Telemetry) Scope(id int) *UEScope {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.scopes[id]; ok {
		return s
	}
	s := &UEScope{Rec: newRecorder(id, t.ringCap), Shard: t.Registry.Shard(id)}
	t.scopes[id] = s
	t.dirty = true
	return s
}

// sortedScopes returns the scopes in ascending ID order, rebuilding
// the cached order only when the scope set changed. Caller holds mu.
func (t *Telemetry) sortedScopes() []*UEScope {
	if !t.dirty && len(t.sorted) == len(t.scopes) {
		return t.sorted
	}
	ids := make([]int, 0, len(t.scopes))
	for id := range t.scopes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	t.sorted = t.sorted[:0]
	for _, id := range ids {
		t.sorted = append(t.sorted, t.scopes[id])
	}
	t.dirty = false
	return t.sorted
}

// Drain empties every scope's ring (ascending scope ID) and returns
// the merged timeline sorted by (T, UE, Seq). Single-writer contract:
// call only when no scope is being stepped (epoch barrier or
// end-of-run). Nil-safe.
func (t *Telemetry) Drain() []Event {
	return t.DrainInto(nil)
}

// DrainInto is Drain into a caller-owned buffer: every scope's ring is
// appended to buf (ascending scope ID), the appended region is sorted
// by (T, UE, Seq), and the extended buffer is returned. Passing a
// recycled buf[:0] makes steady-state epoch drains allocation-free.
// Same single-writer contract as Drain; nil-safe.
func (t *Telemetry) DrainInto(buf []Event) []Event {
	if t == nil {
		return buf
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	start := len(buf)
	for _, s := range t.sortedScopes() {
		buf = s.Rec.DrainInto(buf)
	}
	SortEvents(buf[start:])
	return buf
}

// Dropped sums ring overflow across scopes.
func (t *Telemetry) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.scopes {
		n += s.Rec.Dropped()
	}
	return n
}

// Snapshot merges every shard deterministically (see Registry.Snapshot).
func (t *Telemetry) Snapshot() *Snapshot {
	if t == nil {
		return &Snapshot{}
	}
	return t.Registry.Snapshot()
}

// SortEvents orders a merged timeline by (T, UE, Seq) — the canonical
// NDJSON order. One run's timeline never repeats a key: each UE has
// one recorder and Seq is dense per recorder. So an unstable sort
// gives exactly the order a stable one would, and the generic pdqsort
// here, with no reflection and no allocation, sorts a fleet epoch's
// drain about 2× faster than sort.SliceStable while the coordinator
// holds the barrier. Events whose keys are all equal (possible only
// when merging timelines of different runs) keep no particular order.
func SortEvents(evs []Event) { slices.SortFunc(evs, compareEvents) }

func compareEvents(a, b Event) int {
	if a.T != b.T {
		if a.T < b.T {
			return -1
		}
		return 1
	}
	if a.UE != b.UE {
		return cmp.Compare(a.UE, b.UE)
	}
	return cmp.Compare(a.Seq, b.Seq)
}
