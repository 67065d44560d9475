package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"rem"
	"rem/internal/cluster"
)

// wireSpec is the POST /runs request body: the fleet spec plus
// string-named dataset and mode (the embedded FleetSpec keeps its
// typed Dataset/Mode out of JSON).
type wireSpec struct {
	rem.FleetSpec
	Dataset string `json:"dataset,omitempty"`
	Mode    string `json:"mode,omitempty"`
	// Telemetry arms the deterministic observability plane for the
	// run: GET /runs/{id}/timeline streams its handover timeline and
	// GET /runs/{id}/metrics serves its metrics snapshot. Arming never
	// changes the run's result bytes.
	Telemetry bool `json:"telemetry,omitempty"`
	// Shards > 0 executes the run on the cluster plane: the UE range
	// is partitioned into this many contiguous shards dispatched to
	// member nodes, with merged output byte-identical to a local run.
	// Requires -role coordinator; 0 runs in-process as always.
	Shards int `json:"shards,omitempty"`
}

// Run lifecycle states.
const (
	statePending  = "pending"
	stateRunning  = "running"
	stateDone     = "done"
	stateCanceled = "canceled"
	stateFailed   = "failed"
)

func terminal(state string) bool {
	return state == stateDone || state == stateCanceled || state == stateFailed
}

// run is one fleet execution owned by the server. The fleet engine
// calls its hooks from a single coordinating goroutine; HTTP handlers
// read it concurrently, so all mutable state sits behind mu.
type run struct {
	id     string
	spec   wireSpec
	cancel context.CancelFunc

	mu       sync.Mutex
	state    string
	errMsg   string
	events   []rem.FleetEvent
	notify   chan struct{} // closed and replaced on every append/transition
	progress rem.FleetProgress
	result   *rem.FleetResult
	started  time.Time
	// Telemetry state (spec.Telemetry runs only): the run's armed
	// plane, its accumulated timeline, and the latest metrics snapshot
	// (refreshed at every epoch barrier and once after the run ends).
	tel      *rem.Telemetry
	timeline []rem.TimelineEvent
	snap     *rem.MetricsSnapshot
	// userCanceled distinguishes a client-requested cancel (terminal
	// state "canceled") from a shutdown- or deadline-induced context
	// cancellation (terminal state "failed").
	userCanceled bool
	// resumeHist is the journaled barrier history a recovered sharded
	// run resumes from (nil for fresh runs). Set before the executing
	// goroutine starts and read only there — never mutated after.
	resumeHist [][]int
}

func (r *run) wake() {
	close(r.notify)
	r.notify = make(chan struct{})
}

func (r *run) appendEvent(ev rem.FleetEvent) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.wake()
	r.mu.Unlock()
}

func (r *run) setProgress(p rem.FleetProgress) {
	r.mu.Lock()
	r.progress = p
	r.mu.Unlock()
}

func (r *run) finish(state string, res *rem.FleetResult, errMsg string) {
	r.mu.Lock()
	r.state = state
	r.result = res
	r.errMsg = errMsg
	r.wake()
	r.mu.Unlock()
}

// runView is the JSON shape of GET /runs/{id}.
type runView struct {
	ID       string           `json:"id"`
	State    string           `json:"state"`
	Error    string           `json:"error,omitempty"`
	Spec     wireSpec         `json:"spec"`
	SimTime  float64          `json:"sim_time_sec"`
	Attached int              `json:"attached"`
	Events   int              `json:"events"`
	Timeline int              `json:"timeline_events,omitempty"`
	Result   *rem.FleetResult `json:"result,omitempty"`
}

func (r *run) view(withResult bool) runView {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := runView{
		ID: r.id, State: r.state, Error: r.errMsg, Spec: r.spec,
		SimTime: r.progress.SimTime, Attached: r.progress.Attached,
		Events: len(r.events), Timeline: len(r.timeline),
	}
	if withResult {
		v.Result = r.result
	}
	return v
}

// epochBuckets are the upper bounds (ms) of the epoch decision-latency
// histogram exported at /metrics.
var epochBuckets = []float64{1, 5, 25, 100, 500}

// serverConfig is the hardening surface of the serving stack: request
// and run bounds plus the crash-safe journal location. The zero value
// selects production defaults via defaulted().
type serverConfig struct {
	// RunTimeout bounds each run's wall-clock execution (0 = no
	// deadline). A run that exceeds it finishes failed.
	RunTimeout time.Duration
	// MaxBody caps the POST /runs request body in bytes.
	MaxBody int64
	// MaxActive bounds concurrently executing fleets; further admitted
	// runs queue as "pending" until a slot frees.
	MaxActive int
	// MaxQueue bounds the pending queue; beyond MaxActive+MaxQueue
	// non-terminal runs, POST /runs sheds load with 503 + Retry-After.
	MaxQueue int
	// JournalPath enables the crash-safe run journal; runs found
	// started-but-unfinished at boot are recovered as failed —
	// except sharded runs on a coordinator, which are re-queued and
	// resumed from their last journaled epoch barrier (byte-identical,
	// so the restart is invisible in the results).
	JournalPath string
	// Role selects the cluster role: "single" (default) serves runs
	// in-process only, "coordinator" additionally accepts sharded
	// specs and the member join/heartbeat endpoints, "member" serves
	// the shard execution protocol for a coordinator.
	Role string
	// MemberTTL / MemberWait tune the coordinator's member registry
	// (see cluster.Config). Coordinator role only.
	MemberTTL  time.Duration
	MemberWait time.Duration
	// CallTimeout / BarrierDeadline / CallRetries tune the
	// coordinator's shard RPC robustness (see cluster.Config).
	// Coordinator role only.
	CallTimeout     time.Duration
	BarrierDeadline time.Duration
	CallRetries     int
}

func (c serverConfig) defaulted() serverConfig {
	if c.MaxBody <= 0 {
		c.MaxBody = 1 << 20
	}
	if c.MaxActive <= 0 {
		c.MaxActive = 4
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 8
	}
	if c.MaxQueue < 0 { // negative disables queuing entirely
		c.MaxQueue = 0
	}
	if c.Role == "" {
		c.Role = roleSingle
	}
	return c
}

// Cluster roles.
const (
	roleSingle      = "single"
	roleCoordinator = "coordinator"
	roleMember      = "member"
)

// server owns the run registry and metrics. Metrics are plain fields
// (not expvar globals) so tests can construct independent servers
// without duplicate-Publish panics.
type server struct {
	baseCtx context.Context
	cfg     serverConfig
	// slots is the active-run semaphore; execute() holds one slot for
	// the duration of the fleet run.
	slots   chan struct{}
	journal *journal

	mu    sync.Mutex
	runs  map[string]*run
	order []string
	seq   int

	// sm is the service metrics registry (all writes under mu).
	sm *serverMetrics

	// Cluster plane (role-dependent; nil otherwise).
	coord  *cluster.Coordinator
	member *cluster.Member
}

func newServer(ctx context.Context, cfg serverConfig) (*server, error) {
	cfg = cfg.defaulted()
	s := &server{
		baseCtx: ctx,
		cfg:     cfg,
		slots:   make(chan struct{}, cfg.MaxActive),
		runs:    make(map[string]*run),
		sm:      newServerMetrics(),
	}
	switch cfg.Role {
	case roleSingle:
	case roleCoordinator:
		s.coord = cluster.NewCoordinator(cluster.Config{
			MemberTTL: cfg.MemberTTL, MemberWait: cfg.MemberWait,
			CallTimeout: cfg.CallTimeout, BarrierDeadline: cfg.BarrierDeadline,
			CallRetries: cfg.CallRetries,
		})
	case roleMember:
		s.member = cluster.NewMember()
	default:
		return nil, fmt.Errorf("remserve: unknown role %q", cfg.Role)
	}
	if cfg.JournalPath != "" {
		j, entries, err := openJournal(cfg.JournalPath)
		if err != nil {
			return nil, err
		}
		s.journal = j
		s.recover(entries)
	}
	return s, nil
}

// recover replays journal entries from a previous process: runs with a
// start but no end were in flight when that process died — surface
// them as failed (with their spec, so the client can re-POST) rather
// than leaking them, and advance the ID sequence past everything seen.
// Sharded runs additionally collect their journaled barrier history so
// the resume continues from the last journaled epoch, not epoch 0.
func (s *server) recover(entries []journalEntry) {
	type rec struct {
		spec  *wireSpec
		hist  [][]int
		ended bool
	}
	open := make(map[string]*rec)
	var order []string
	maxSeq := 0
	for _, e := range entries {
		var n int
		if _, err := fmt.Sscanf(e.ID, "run-%d", &n); err == nil && n > maxSeq {
			maxSeq = n
		}
		switch e.Op {
		case "start":
			if _, ok := open[e.ID]; !ok {
				open[e.ID] = &rec{spec: e.Spec}
				order = append(order, e.ID)
			}
		case "epoch":
			// Barriers are journaled in order; only a contiguous prefix
			// from barrier 0 is a usable replay script. Anything after a
			// gap (which a journal-write failure can leave) is dropped —
			// the run then resumes from the prefix, which is always safe.
			if r, ok := open[e.ID]; ok && e.Epoch == len(r.hist) && len(e.Loads) > 0 {
				r.hist = append(r.hist, e.Loads)
			}
		case "end":
			if r, ok := open[e.ID]; ok {
				r.ended = true
			}
		}
	}
	s.seq = maxSeq
	for _, id := range order {
		rc := open[id]
		if rc.ended {
			continue
		}
		// A sharded run interrupted on a coordinator is re-queued, not
		// failed: members rebuild the shards from the journaled spec,
		// replay the journaled load history to the last barrier, and the
		// merged output is byte-identical, so the restart is invisible
		// to the client beyond the extra wall-clock.
		if s.coord != nil && rc.spec != nil && rc.spec.Shards > 0 {
			if err := s.resumeRun(id, *rc.spec, rc.hist); err == nil {
				continue
			}
		}
		r := &run{
			id:     id,
			cancel: func() {},
			state:  stateFailed,
			errMsg: "interrupted by server restart",
			notify: make(chan struct{}),
		}
		if rc.spec != nil {
			r.spec = *rc.spec
		}
		s.runs[id] = r
		s.order = append(s.order, id)
		s.sm.failed.Inc()
		s.sm.recovered.Inc()
		s.journalEnd(r)
	}
}

// resumeRun re-admits a journaled sharded run after a coordinator
// restart, seeding it with the journaled barrier history so execution
// continues from the last journaled epoch. The original "start" entry
// is still open, so the eventual terminal state pairs with it — no
// second start is journaled (the replayed barriers are not
// re-journaled either; the history already covers them).
func (s *server) resumeRun(id string, spec wireSpec, hist [][]int) error {
	fs, err := s.fleetSpec(spec)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	r := &run{
		id: id, spec: spec, cancel: cancel,
		state: statePending, notify: make(chan struct{}),
		started: time.Now(), resumeHist: hist,
	}
	s.runs[id] = r
	s.order = append(s.order, id)
	s.sm.started.Inc()
	s.sm.resumed.Inc()
	if len(hist) > 1 {
		// Exposed before the run finishes so an operator (or the smoke
		// test) can verify mid-flight that the restart skipped epochs.
		s.sm.resumeEpoch.Set(float64(len(hist) - 1))
	}
	go s.execute(ctx, r, fs)
	return nil
}

// journalRecord appends one journal entry, surfacing any write failure
// as a counter and a log line — the journal degrades (a future resume
// starts from an older barrier) but never fails the run itself.
func (s *server) journalRecord(e journalEntry) {
	if err := s.journal.record(e); err != nil {
		s.mu.Lock()
		s.sm.journalErrors.Inc()
		s.mu.Unlock()
		log.Printf("remserve: journal: %s %s: %v", e.Op, e.ID, err)
	}
}

func (s *server) journalEnd(r *run) {
	r.mu.Lock()
	e := journalEntry{Op: "end", ID: r.id, State: r.state, Error: r.errMsg}
	r.mu.Unlock()
	s.journalRecord(e)
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /runs", s.handleStartRun)
	mux.HandleFunc("GET /runs", s.handleListRuns)
	mux.HandleFunc("GET /runs/{id}", s.handleGetRun)
	mux.HandleFunc("POST /runs/{id}/cancel", s.handleCancelRun)
	mux.HandleFunc("GET /runs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /runs/{id}/timeline", s.handleTimeline)
	mux.HandleFunc("GET /runs/{id}/metrics", s.handleRunMetrics)
	if s.coord != nil {
		s.coord.RegisterHandlers(mux)
	}
	if s.member != nil {
		s.member.RegisterHandlers(mux)
	}
	return mux
}

// healthView is the GET /healthz body. Status "ok" is liveness; Ready
// is readiness for the role (a coordinator is ready once at least one
// member is live). Members carries the coordinator's live member
// count, Shards a member's resident shard engines.
type healthView struct {
	Status  string `json:"status"`
	Role    string `json:"role"`
	Ready   bool   `json:"ready"`
	Members *int   `json:"members,omitempty"`
	Shards  *int   `json:"shards,omitempty"`
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	v := healthView{Status: "ok", Role: s.cfg.Role, Ready: true}
	if s.coord != nil {
		n := s.coord.LiveCount()
		v.Members = &n
		v.Ready = n > 0
	}
	if s.member != nil {
		n := s.member.Shards()
		v.Shards = &n
	}
	writeJSON(w, http.StatusOK, v)
}

type metricsView struct {
	ActiveRuns    int           `json:"active_runs"`
	ActiveUEs     int           `json:"active_ues"`
	RunsStarted   int           `json:"runs_started"`
	RunsCompleted int           `json:"runs_completed"`
	RunsCanceled  int           `json:"runs_canceled"`
	RunsFailed    int           `json:"runs_failed"`
	RunsShed      int           `json:"runs_shed"`
	RunsRecovered int           `json:"runs_recovered"`
	Handovers     int           `json:"handovers"`
	Failures      int           `json:"failures"`
	Blocked       int           `json:"blocked"`
	Epochs        int           `json:"epochs"`
	EpochWallHist []bucketCount `json:"epoch_wall_ms_hist"`
}

type bucketCount struct {
	LeMs  float64 `json:"le_ms,omitempty"` // 0 means +Inf (overflow bucket)
	Count int     `json:"count"`
}

func (s *server) handleMetrics(w http.ResponseWriter, req *http.Request) {
	s.mu.Lock()
	views := make([]*run, 0, len(s.runs))
	for _, id := range s.order {
		views = append(views, s.runs[id])
	}
	s.mu.Unlock()

	// Live gauges: sum each run's latest progress heartbeat (the hooks
	// carry cumulative totals per run, so this includes both finished
	// and still-running fleets).
	var activeRuns, activeUEs, handovers, failures, blocked int
	for _, r := range views {
		r.mu.Lock()
		if r.state == stateRunning {
			activeRuns++
			activeUEs += r.progress.Attached
		}
		handovers += r.progress.Handovers
		failures += r.progress.Failures
		blocked += r.progress.Blocked
		r.mu.Unlock()
	}
	s.mu.Lock()
	s.sm.activeRuns.Set(float64(activeRuns))
	s.sm.activeUEs.Set(float64(activeUEs))
	s.sm.handovers.Set(float64(handovers))
	s.sm.failures.Set(float64(failures))
	s.sm.blocked.Set(float64(blocked))
	snap := s.sm.reg.Snapshot()
	s.mu.Unlock()

	if wantsPrometheus(req) {
		w.Header().Set("Content-Type", rem.PrometheusContentType)
		w.Write(snap.PrometheusText())
		return
	}
	writeJSON(w, http.StatusOK, metricsViewFrom(snap))
}

// errBusy is returned by startRun when the non-terminal run count has
// reached MaxActive+MaxQueue; the handler sheds the request with 503.
var errBusy = errors.New("server at capacity: too many runs in flight")

func (s *server) handleStartRun(w http.ResponseWriter, req *http.Request) {
	var spec wireSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, s.cfg.MaxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("spec exceeds %d-byte limit", tooBig.Limit))
			return
		}
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad spec: %w", err))
		return
	}
	r, err := s.startRun(spec)
	if errors.Is(err, errBusy) {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSec))
		httpError(w, http.StatusServiceUnavailable, err)
		return
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Location", "/runs/"+r.id)
	writeJSON(w, http.StatusAccepted, r.view(false))
}

// retryAfterSec is the Retry-After hint sent with load-shed responses.
const retryAfterSec = 1

// fleetSpec resolves and validates a wire spec into the typed fleet
// spec, including the cluster-plane checks.
func (s *server) fleetSpec(spec wireSpec) (rem.FleetSpec, error) {
	ds, err := rem.ParseDataset(spec.Dataset)
	if err != nil {
		return rem.FleetSpec{}, err
	}
	md, err := rem.ParseMode(spec.Mode)
	if err != nil {
		return rem.FleetSpec{}, err
	}
	fs := spec.FleetSpec
	fs.Dataset = ds
	fs.Mode = md
	if fs.DurationSec <= 0 {
		return rem.FleetSpec{}, fmt.Errorf("spec: duration_sec must be > 0")
	}
	if fs.UEs < 1 {
		return rem.FleetSpec{}, fmt.Errorf("spec: ues must be >= 1")
	}
	if spec.Shards < 0 {
		return rem.FleetSpec{}, fmt.Errorf("spec: shards must be >= 0")
	}
	if spec.Shards > 0 {
		if s.coord == nil {
			return rem.FleetSpec{}, fmt.Errorf("spec: sharded runs need -role coordinator (this server is %q)", s.cfg.Role)
		}
		if spec.Shards > fs.UEs {
			return rem.FleetSpec{}, fmt.Errorf("spec: %d shards exceed %d ues", spec.Shards, fs.UEs)
		}
	}
	return fs, nil
}

func (s *server) startRun(spec wireSpec) (*run, error) {
	fs, err := s.fleetSpec(spec)
	if err != nil {
		return nil, err
	}

	ctx, cancel := context.WithCancel(s.baseCtx)
	r := &run{
		spec: spec, cancel: cancel,
		state: statePending, notify: make(chan struct{}),
		started: time.Now(),
	}
	s.mu.Lock()
	// Load shedding: admission is bounded by active slots plus a finite
	// pending queue. Shedding here (rather than blocking) keeps the
	// handler's latency flat under overload.
	inFlight := 0
	for _, other := range s.runs {
		other.mu.Lock()
		if !terminal(other.state) {
			inFlight++
		}
		other.mu.Unlock()
	}
	if inFlight >= s.cfg.MaxActive+s.cfg.MaxQueue {
		s.sm.shed.Inc()
		s.mu.Unlock()
		cancel()
		return nil, errBusy
	}
	s.seq++
	r.id = fmt.Sprintf("run-%04d", s.seq)
	s.runs[r.id] = r
	s.order = append(s.order, r.id)
	s.sm.started.Inc()
	s.mu.Unlock()

	s.journalRecord(journalEntry{Op: "start", ID: r.id, Spec: &spec})
	go s.execute(ctx, r, fs)
	return r, nil
}

func (s *server) execute(ctx context.Context, r *run, fs rem.FleetSpec) {
	// Hold an active slot for the duration of the fleet run; until one
	// frees up the run stays "pending" in the bounded queue.
	select {
	case s.slots <- struct{}{}:
		defer func() { <-s.slots }()
	case <-ctx.Done():
		s.finishRun(r, ctx.Err())
		return
	}

	if s.cfg.RunTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RunTimeout)
		defer cancel()
	}

	r.mu.Lock()
	r.state = stateRunning
	r.wake()
	r.mu.Unlock()

	// Sharded runs execute on the cluster plane, which owns its own
	// retry story (member failover and reassignment). An in-process run
	// is a pure function of its spec, so a failed one is not retried:
	// it would fail the same way again.
	if r.spec.Shards > 0 && s.coord != nil {
		res, err := s.runCluster(ctx, r, fs)
		if err != nil {
			res = nil
		}
		s.finishRunResult(r, res, err)
		return
	}

	opts := rem.FleetOptions{
		Observer: r.appendEvent,
		Progress: func(p rem.FleetProgress) {
			r.setProgress(p)
			s.observeEpoch(p)
		},
	}
	if r.spec.Telemetry {
		tel := rem.NewTelemetry(rem.TelemetryConfig{})
		r.mu.Lock()
		r.tel = tel
		r.mu.Unlock()
		opts.Telemetry = tel
		opts.OnTimeline = func(evs []rem.TimelineEvent) {
			r.mu.Lock()
			r.timeline = append(r.timeline, evs...)
			r.wake()
			r.mu.Unlock()
		}
		// Refresh the snapshot at every epoch barrier: the
		// coordinator calls Progress while the worker pool is
		// parked, which is exactly when a snapshot is race-free.
		prog := opts.Progress
		opts.Progress = func(p rem.FleetProgress) {
			prog(p)
			r.mu.Lock()
			r.snap = tel.Snapshot()
			r.mu.Unlock()
		}
	}
	res, err := rem.RunFleetWithOptions(ctx, fs, opts)
	if err != nil {
		res = nil
	}
	// Final snapshot after the pool has joined: it includes the
	// post-run TCP stall observations the last timeline batch carried.
	r.mu.Lock()
	if r.tel != nil {
		r.snap = r.tel.Snapshot()
	}
	r.mu.Unlock()
	s.finishRunResult(r, res, err)
}

// runCluster executes a sharded run through the coordinator, bridging
// the cluster hooks onto the run's event/timeline/progress state and
// journaling every shard assignment (failovers included) so a restart
// can reconstruct what ran where.
func (s *server) runCluster(ctx context.Context, r *run, fs rem.FleetSpec) (*rem.FleetResult, error) {
	hooks := cluster.RunHooks{
		OnEvents: func(evs []rem.FleetEvent) {
			r.mu.Lock()
			r.events = append(r.events, evs...)
			r.wake()
			r.mu.Unlock()
		},
		OnProgress: func(p rem.FleetProgress) {
			r.setProgress(p)
			s.observeEpoch(p)
		},
		OnAssign: func(a cluster.Assignment) {
			shard := a.Shard
			s.journalRecord(journalEntry{
				Op: "assign", ID: a.Run, Shard: &shard, Member: a.Member,
				Addr: a.Addr, Epoch: a.FromEpoch, Reassigned: a.Reassigned,
			})
		},
		OnBarrier: func(index int, loads []int) {
			// The journaled load vectors are the complete replay script:
			// a restarted coordinator resumes the run from the last
			// contiguous barrier instead of re-executing from epoch 0.
			s.journalRecord(journalEntry{Op: "epoch", ID: r.id, Epoch: index, Loads: loads})
		},
	}
	if r.spec.Telemetry {
		hooks.OnTimeline = func(evs []rem.TimelineEvent) {
			r.mu.Lock()
			r.timeline = append(r.timeline, evs...)
			r.wake()
			r.mu.Unlock()
		}
	}
	opts := cluster.RunOptions{
		RunID: r.id, Shards: r.spec.Shards, Telemetry: r.spec.Telemetry, Hooks: hooks,
	}
	if len(r.resumeHist) > 0 {
		opts.Resume = &cluster.Resume{LoadHist: r.resumeHist}
	}
	art, err := s.coord.RunFleet(ctx, fs, opts)
	if err != nil {
		return nil, err
	}
	// The merged snapshot arrives with the artifacts (shard registries
	// only ship their dumps at finish), so unlike in-process armed runs
	// there are no mid-run snapshot refreshes.
	if art.Snapshot != nil {
		r.mu.Lock()
		r.snap = art.Snapshot
		r.mu.Unlock()
	}
	return art.Result, nil
}

// finishRun finishes a run that never produced a result.
func (s *server) finishRun(r *run, err error) { s.finishRunResult(r, nil, err) }

// finishRunResult maps the fleet error to a terminal state, updates
// metrics, and journals the end. A context.Canceled error only counts
// as "canceled" when the client asked for it; cancellation imposed by
// server shutdown (or slot-wait abandonment) is a failure from the
// client's point of view, as is a blown run deadline.
func (s *server) finishRunResult(r *run, res *rem.FleetResult, err error) {
	r.mu.Lock()
	userCanceled := r.userCanceled
	r.mu.Unlock()

	state := stateDone
	msg := ""
	switch {
	case err == nil:
	case errors.Is(err, context.DeadlineExceeded):
		state, msg = stateFailed, fmt.Sprintf("run exceeded %s deadline", s.cfg.RunTimeout)
	case errors.Is(err, context.Canceled) && userCanceled:
		state, msg = stateCanceled, err.Error()
	case errors.Is(err, context.Canceled):
		state, msg = stateFailed, "canceled by server shutdown"
	default:
		state, msg = stateFailed, err.Error()
	}

	s.mu.Lock()
	switch state {
	case stateDone:
		s.sm.completed.Inc()
	case stateCanceled:
		s.sm.canceled.Inc()
	default:
		s.sm.failed.Inc()
	}
	s.mu.Unlock()

	r.finish(state, res, msg)
	r.cancel()
	s.journalEnd(r)
}

// noteHeartbeatMiss counts one missed member heartbeat (all in-tick
// retries exhausted) for the Prometheus exposition.
func (s *server) noteHeartbeatMiss() {
	s.mu.Lock()
	s.sm.heartbeatMisses.Inc()
	s.mu.Unlock()
}

func (s *server) observeEpoch(p rem.FleetProgress) {
	ms := float64(p.WallStep) / float64(time.Millisecond)
	s.mu.Lock()
	s.sm.epochs.Inc()
	s.sm.epochWall.Observe(ms)
	s.sm.epochAllocs.Add(float64(p.EpochAllocs))
	s.sm.lastEpochNs.Set(float64(p.WallStep.Nanoseconds()))
	s.sm.lastEpochAllocs.Set(float64(p.EpochAllocs))
	s.mu.Unlock()
}

func (s *server) lookup(req *http.Request) *run {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runs[req.PathValue("id")]
}

func (s *server) handleListRuns(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	runs := make([]*run, 0, len(s.order))
	for _, id := range s.order {
		runs = append(runs, s.runs[id])
	}
	s.mu.Unlock()
	views := make([]runView, 0, len(runs))
	for _, r := range runs {
		views = append(views, r.view(false))
	}
	writeJSON(w, http.StatusOK, map[string]any{"runs": views})
}

func (s *server) handleGetRun(w http.ResponseWriter, req *http.Request) {
	r := s.lookup(req)
	if r == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("no such run"))
		return
	}
	writeJSON(w, http.StatusOK, r.view(true))
}

func (s *server) handleCancelRun(w http.ResponseWriter, req *http.Request) {
	r := s.lookup(req)
	if r == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("no such run"))
		return
	}
	r.mu.Lock()
	r.userCanceled = true
	r.mu.Unlock()
	r.cancel()
	writeJSON(w, http.StatusOK, r.view(false))
}

// handleEvents streams the run's events as NDJSON: buffered replay
// first, then live follow until the run reaches a terminal state or
// the client disconnects.
func (s *server) handleEvents(w http.ResponseWriter, req *http.Request) {
	r := s.lookup(req)
	if r == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("no such run"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	idx := 0
	for {
		r.mu.Lock()
		pending := r.events[idx:]
		idx = len(r.events)
		done := terminal(r.state)
		notify := r.notify
		r.mu.Unlock()

		for _, ev := range pending {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		if len(pending) > 0 && flusher != nil {
			flusher.Flush()
		}
		if done {
			return
		}
		select {
		case <-notify:
		case <-req.Context().Done():
			return
		}
	}
}

// handleTimeline streams the run's telemetry timeline as NDJSON:
// buffered replay first, then live follow until the run reaches a
// terminal state or the client disconnects. Batches arrive at epoch
// barriers, each internally ordered by (time, ue, seq).
func (s *server) handleTimeline(w http.ResponseWriter, req *http.Request) {
	r := s.lookup(req)
	if r == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("no such run"))
		return
	}
	if !r.spec.Telemetry {
		httpError(w, http.StatusConflict,
			fmt.Errorf("run has no telemetry; POST the spec with \"telemetry\": true"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	idx := 0
	for {
		r.mu.Lock()
		pending := r.timeline[idx:]
		idx = len(r.timeline)
		done := terminal(r.state)
		notify := r.notify
		r.mu.Unlock()

		for _, ev := range pending {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		if len(pending) > 0 && flusher != nil {
			flusher.Flush()
		}
		if done {
			return
		}
		select {
		case <-notify:
		case <-req.Context().Done():
			return
		}
	}
}

// handleRunMetrics serves the run's latest metrics snapshot —
// refreshed at every epoch barrier and after the run finishes — as
// Prometheus text by default, or the snapshot JSON when the client
// asks for application/json.
func (s *server) handleRunMetrics(w http.ResponseWriter, req *http.Request) {
	r := s.lookup(req)
	if r == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("no such run"))
		return
	}
	if !r.spec.Telemetry {
		httpError(w, http.StatusConflict,
			fmt.Errorf("run has no telemetry; POST the spec with \"telemetry\": true"))
		return
	}
	r.mu.Lock()
	snap := r.snap
	r.mu.Unlock()
	if snap == nil {
		snap = &rem.MetricsSnapshot{} // armed but no barrier reached yet
	}
	if strings.Contains(req.Header.Get("Accept"), "application/json") {
		writeJSON(w, http.StatusOK, snap)
		return
	}
	w.Header().Set("Content-Type", rem.PrometheusContentType)
	w.Write(snap.PrometheusText())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
