package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"rem/internal/fleet"
	"rem/internal/mobility"
	"rem/internal/obs"
	"rem/internal/transport"
)

// Range is one shard's contiguous UE id range.
type Range struct {
	Offset int `json:"offset"`
	UEs    int `json:"ues"`
}

// PartitionUEs tiles [0, ues) into n contiguous ranges, the first
// ues%n of them one UE larger. n must be in [1, ues].
func PartitionUEs(ues, n int) []Range {
	base, rem := ues/n, ues%n
	out := make([]Range, n)
	off := 0
	for i := range out {
		size := base
		if i < rem {
			size++
		}
		out[i] = Range{Offset: off, UEs: size}
		off += size
	}
	return out
}

// Assignment records one shard placement: which member runs which
// shard starting at which epoch. Reassigned placements are failovers —
// the member rebuilds the shard from its spec and replays the recorded
// global-load history up to FromEpoch before rejoining the barrier.
type Assignment struct {
	Run        string `json:"run"`
	Shard      int    `json:"shard"`
	Member     string `json:"member"`
	Addr       string `json:"addr"`
	FromEpoch  int    `json:"from_epoch"`
	Reassigned bool   `json:"reassigned,omitempty"`
}

// RunHooks observes a clustered run. OnEvents, OnTimeline, OnProgress
// and OnBarrier are called from the driver goroutine only, once per
// epoch, with merged batches in the exact order a single-process run
// would emit. OnAssign may be called from internal goroutines during
// failover.
type RunHooks struct {
	OnEvents   func([]fleet.Event)
	OnTimeline func([]obs.Event)
	OnProgress func(fleet.Progress)
	OnAssign   func(Assignment)
	// OnBarrier reports the global per-cell load vector installed at
	// barrier index k (k=0 is the initial attach snapshot, k=n the
	// vector after epoch n-1). Journaling these vectors is what makes
	// a mid-run coordinator resume possible: they are the complete
	// replay script for every shard. Resumed runs only report barriers
	// they newly reach, never the ones they were seeded with.
	OnBarrier func(index int, loads []int)
}

// Resume seeds a run with a previous coordinator's journaled barrier
// history so it continues from the last journaled barrier instead of
// from epoch 0.
type Resume struct {
	// LoadHist[k] is the global per-cell load vector at barrier k, as
	// reported by OnBarrier. len(LoadHist)-1 epochs are considered
	// complete; shards are rebuilt with a replay to that point and the
	// replayed epochs' merged events and timeline are re-emitted
	// through the hooks (the restarted process lost its copies), so
	// the streams a client re-reads after the restart are complete.
	LoadHist [][]int
}

// RunOptions configures one clustered run.
type RunOptions struct {
	// RunID names the run in the shard protocol (default "run").
	RunID string
	// Shards is the number of UE-range shards dispatched to registered
	// members (at most spec.UEs). 0 runs the whole spec as one shard on
	// the coordinator's private in-process member: no member wait, and
	// every failure is fatal, since a deterministic run has nothing to
	// fail over to.
	Shards int
	// Telemetry arms the observability plane on every shard; the
	// merged snapshot lands in Artifacts.Snapshot.
	Telemetry bool
	// Resume, when non-nil and non-empty, continues an interrupted
	// run from its journaled barrier history instead of epoch 0.
	Resume *Resume
	Hooks  RunHooks
}

// Artifacts is a clustered run's merged output.
type Artifacts struct {
	// Result is byte-identical to the single-process fleet result.
	Result *fleet.Result
	// Snapshot is the merged metrics snapshot (nil when telemetry is
	// off), byte-identical to a single-process armed run's.
	Snapshot *obs.Snapshot
	// Epochs is how many barrier intervals the run took.
	Epochs int
	// ResumedFrom is the epoch the run continued from (0 for a fresh
	// run): epochs below it were replayed from the journaled load
	// history rather than re-merged live.
	ResumedFrom int
	// Assignments is the full placement history, initial assignments
	// first, failovers appended as they happened.
	Assignments []Assignment
}

// runState is one clustered run's driver-side state.
type runState struct {
	id        string
	telemetry bool
	hooks     RunHooks
	// local is the coordinator's private member when the run executes
	// in-process (nil for a run on registered members).
	local *Member
	// loadHist[k] is the global per-cell load vector installed before
	// epoch k — the replay script a failover needs to re-derive any
	// shard's state at any barrier.
	loadHist [][]int
	// collectReplay is set during the initial placement of a resumed
	// run: replayed step responses are then collected per shard so the
	// replayed epochs' events and timeline can be re-emitted. Failover
	// replays never collect — their epochs were already emitted.
	collectReplay bool
	// events / timeline are the merged-epoch buffers emitEpoch reuses;
	// handovers, failures and blocked are the cumulative counters it
	// advances. Coordinator goroutine only.
	events                       []fleet.Event
	timeline                     []obs.Event
	handovers, failures, blocked int

	mu          sync.Mutex
	assignments []Assignment
}

// barrier appends the next global load vector and reports it.
func (rs *runState) barrier(global []int) {
	rs.loadHist = append(rs.loadHist, global)
	if rs.hooks.OnBarrier != nil {
		rs.hooks.OnBarrier(len(rs.loadHist)-1, global)
	}
}

// emitEpoch merges one epoch's shard responses (in shard order) into
// the run's output stream: events stably sorted into (time, UE) order
// and counted exactly as the single-process engine counts its own, the
// timeline sorted into canonical order, and both handed to the hooks.
func (rs *runState) emitEpoch(steps []*stepResponse) {
	rs.events, rs.timeline = rs.events[:0], rs.timeline[:0]
	for _, sr := range steps {
		rs.events = append(rs.events, sr.Events...)
		rs.timeline = append(rs.timeline, sr.Timeline...)
	}
	sortFleetEvents(rs.events)
	for _, ev := range rs.events {
		switch ev.Type {
		case fleet.EventHandover:
			rs.handovers++
		case fleet.EventFailure:
			rs.failures++
		case fleet.EventBlocked:
			rs.blocked++
		}
	}
	if len(rs.events) > 0 && rs.hooks.OnEvents != nil {
		rs.hooks.OnEvents(rs.events)
	}
	if len(rs.timeline) > 0 {
		obs.SortEvents(rs.timeline)
		if rs.hooks.OnTimeline != nil {
			rs.hooks.OnTimeline(rs.timeline)
		}
	}
}

func (rs *runState) recordAssignment(a Assignment) {
	rs.mu.Lock()
	rs.assignments = append(rs.assignments, a)
	if rs.hooks.OnAssign != nil {
		rs.hooks.OnAssign(a)
	}
	rs.mu.Unlock()
}

// shardState is one shard's driver-side view.
type shardState struct {
	idx  int
	rng  Range
	spec fleet.Spec
	// member is the current placement; initLoads the shard's initial
	// per-cell loads from its first start.
	member    MemberInfo
	initLoads []int
	// replay holds the shard's replayed step responses when a resumed
	// run's initial placement collects them for re-emission.
	replay []*stepResponse
}

// RunFleet executes spec as opts.Shards UE-range shards in epoch
// lock-step — on the live members, or in-process when opts.Shards is 0
// — and merges the output. The merged result, metrics snapshot, event
// stream and timeline are byte-identical to RunWithOptions of the same
// spec in one process. Member failures at any point trigger
// reassignment; the run only fails when no live members remain.
func (c *Coordinator) RunFleet(ctx context.Context, spec fleet.Spec, opts RunOptions) (*Artifacts, error) {
	spec = spec.Defaulted()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rs := &runState{id: opts.RunID, telemetry: opts.Telemetry, hooks: opts.Hooks}
	if rs.id == "" {
		rs.id = "run"
	}
	shards := opts.Shards
	switch {
	case shards < 0:
		return nil, fmt.Errorf("cluster: negative shard count %d", shards)
	case shards == 0:
		shards, rs.local = 1, c.local
	case shards > spec.UEs:
		return nil, fmt.Errorf("cluster: %d shards exceed %d UEs", shards, spec.UEs)
	}

	// Shards tile the spec's own global UE range, which starts at
	// spec.UEOffset.
	sts := make([]*shardState, shards)
	for i, rng := range PartitionUEs(spec.UEs, shards) {
		rng.Offset += spec.UEOffset
		ss := spec
		ss.UEOffset, ss.UEs = rng.Offset, rng.UEs
		if ss.Workers > ss.UEs {
			ss.Workers = ss.UEs // worker count never affects output
		}
		sts[i] = &shardState{idx: i, rng: rng, spec: ss}
	}

	// Initial placement. A resumed run seeds the load history from the
	// journal and places every shard with a replay to the last
	// journaled barrier; a fresh run starts the shards and derives the
	// global epoch-zero load snapshot.
	startEpoch := 0
	resumed := opts.Resume != nil && len(opts.Resume.LoadHist) > 0
	if resumed {
		hist := opts.Resume.LoadHist
		for _, v := range hist {
			if len(v) != len(hist[0]) {
				return nil, fmt.Errorf("cluster: resume history has inconsistent load vector lengths")
			}
		}
		rs.loadHist = hist
		startEpoch = len(hist) - 1
	}
	rs.collectReplay = startEpoch > 0
	for _, sh := range sts {
		if err := c.placeShard(ctx, rs, sh, startEpoch, false); err != nil {
			c.abortShards(rs, sts)
			return nil, err
		}
	}
	rs.collectReplay = false
	global := make([]int, len(sts[0].initLoads))
	for _, sh := range sts {
		if err := addLoads(global, sh.initLoads); err != nil {
			c.abortShards(rs, sts)
			return nil, err
		}
	}
	resumeDone := false
	var peaks []int
	if resumed {
		// The journaled history must describe this spec: the shards'
		// fresh initial loads have to reproduce barrier 0 exactly. The
		// seeded barriers are never re-reported through OnBarrier — a
		// history of length 1 (only barrier 0 journaled) therefore
		// continues from epoch 0 without duplicating the barrier.
		if err := sameLoads(global, rs.loadHist[0]); err != nil {
			c.abortShards(rs, sts)
			return nil, fmt.Errorf("cluster: resume history does not match spec at barrier 0: %w", err)
		}
		peaks = make([]int, len(rs.loadHist[0]))
		for _, v := range rs.loadHist {
			maxLoads(peaks, v)
		}
		// Re-emit the replayed epochs' merged output: the restarted
		// coordinator lost its buffered streams, and determinism makes
		// the replayed batches byte-identical to the originals.
		for _, sh := range sts {
			if len(sh.replay) != startEpoch {
				c.abortShards(rs, sts)
				return nil, fmt.Errorf("cluster: shard %d replayed %d epochs, want %d", sh.idx, len(sh.replay), startEpoch)
			}
		}
		batch := make([]*stepResponse, len(sts))
		for k := 0; k < startEpoch; k++ {
			for i, sh := range sts {
				batch[i] = sh.replay[k]
				if k == startEpoch-1 && sh.replay[k].Done {
					resumeDone = true
				}
			}
			rs.emitEpoch(batch)
		}
		for _, sh := range sts {
			sh.replay = nil
		}
	} else {
		rs.barrier(global)
		peaks = append([]int(nil), global...)
	}

	// The epoch loop: step every shard in parallel against the same
	// frozen global loads, merge the epoch's output, refresh the
	// globals. A resumed run whose history already covers every epoch
	// skips the loop and goes straight to finish. Each round is timed
	// for the Progress heartbeat only; wall time never reaches the
	// result, snapshot or timeline. Simulated time advances exactly as
	// the engine's own clock does, so the heartbeat carries its bits.
	simT := 0.0
	advance := func() { simT = min(simT+spec.EpochSec, spec.DurationSec) }
	for k := 0; k < startEpoch; k++ {
		advance()
	}
	epoch := startEpoch
	for !resumeDone {
		roundStart := time.Now()
		steps, err := c.stepAll(ctx, rs, sts, epoch)
		if err != nil {
			c.abortShards(rs, sts)
			return nil, err
		}
		done := steps[0].Done
		global = make([]int, len(rs.loadHist[0]))
		var allocs uint64
		for _, sr := range steps {
			allocs += sr.Allocs
			if sr.Done != done {
				c.abortShards(rs, sts)
				return nil, fmt.Errorf("cluster: shards disagree on epoch schedule at epoch %d", epoch)
			}
			if err := addLoads(global, sr.Loads); err != nil {
				c.abortShards(rs, sts)
				return nil, err
			}
		}
		rs.emitEpoch(steps)
		rs.barrier(global)
		maxLoads(peaks, global)
		epoch++
		advance()
		if rs.hooks.OnProgress != nil {
			rs.hooks.OnProgress(fleet.Progress{
				SimTime: simT, Attached: sumLoads(global),
				Handovers: rs.handovers, Failures: rs.failures, Blocked: rs.blocked,
				WallStep: time.Since(roundStart), EpochAllocs: allocs,
			})
		}
		if done {
			break
		}
	}
	finals := rs.loadHist[len(rs.loadHist)-1]

	// Finalize every shard (failover included: a member lost here gets
	// the shard replayed end-to-end elsewhere, then finished there).
	fins, err := c.finishAll(ctx, rs, sts, epoch)
	if err != nil {
		c.abortShards(rs, sts)
		return nil, err
	}

	slices := make([]fleet.ShardSlice, shards)
	dumps := make([]*obs.Dump, 0, shards)
	var tail []obs.Event
	for i, fr := range fins {
		results := make([]*mobility.Result, len(fr.UEs))
		for j, t := range fr.UEs {
			if want := sts[i].rng.Offset + j; t.UE != want {
				return nil, fmt.Errorf("cluster: shard %d returned UE %d at slot %d, want %d", i, t.UE, j, want)
			}
			res, err := t.reconstruct()
			if err != nil {
				return nil, err
			}
			results[j] = res
		}
		slices[i] = fleet.ShardSlice{Offset: sts[i].rng.Offset, Results: results, Blocked: fr.Blocked, Cells: fr.Cells}
		if spec.Transport != nil {
			tr := make([]transport.Totals, len(fr.UEs))
			for j, t := range fr.UEs {
				if t.Transport == nil {
					return nil, fmt.Errorf("cluster: shard %d UE %d missing transport totals", i, t.UE)
				}
				tr[j] = *t.Transport
			}
			slices[i].Transport = tr
		}
		if fr.Metrics != nil {
			dumps = append(dumps, fr.Metrics)
		}
		tail = append(tail, fr.Timeline...)
	}
	if len(tail) > 0 {
		obs.SortEvents(tail)
		if rs.hooks.OnTimeline != nil {
			rs.hooks.OnTimeline(tail)
		}
	}
	result, err := fleet.MergeShards(spec, slices, peaks, finals)
	if err != nil {
		return nil, err
	}
	// Finished shards hold their cached finish responses for the
	// idempotent retry path; the run is merged, so sweep them away.
	c.abortShards(rs, sts)
	art := &Artifacts{Result: result, Epochs: epoch, ResumedFrom: startEpoch, Assignments: rs.assignments}
	if rs.telemetry {
		reg, err := MergeDumps(dumps, spec.Transport != nil)
		if err != nil {
			return nil, err
		}
		art.Snapshot = reg.Snapshot()
	}
	return art, nil
}

// placeShard starts sh on a live member, replaying the recorded load
// history up to fromEpoch (outputs discarded, unless a resume is
// collecting them) so the engine rejoins the barrier in the exact
// state the lost one held. Members that fail are marked dead and the
// next candidate tried; it gives up when no member turns live within
// the coordinator's wait budget or the failure is fatal (a protocol
// rejection no other member would accept either).
func (c *Coordinator) placeShard(ctx context.Context, rs *runState, sh *shardState, fromEpoch int, reassigned bool) error {
	avoid := ""
	for {
		m := MemberInfo{ID: localMemberID, Live: true}
		if rs.local == nil {
			if err := c.waitForMembers(ctx, 1); err != nil {
				return fmt.Errorf("cluster: shard %d unplaceable: %w", sh.idx, err)
			}
			live := c.liveMembers()
			m = live[sh.idx%len(live)]
			if m.ID == avoid && len(live) > 1 {
				m = live[(sh.idx+1)%len(live)]
			}
		}
		err := c.startAndReplay(ctx, rs, sh, m, fromEpoch)
		if err == nil {
			sh.member = m
			rs.recordAssignment(Assignment{
				Run: rs.id, Shard: sh.idx, Member: m.ID, Addr: m.Addr,
				FromEpoch: fromEpoch, Reassigned: reassigned,
			})
			return nil
		}
		if rs.fatal(ctx, err) {
			return err
		}
		c.markDead(m.ID)
		avoid = m.ID
	}
}

// localMemberID names the coordinator's private member in the
// assignment history of an in-process run.
const localMemberID = "local"

// fatal reports whether err ends the run instead of failing the shard
// over: the run is canceled, the run is in-process (a deterministic
// failure would only recur), or err is a protocol rejection that
// retrying elsewhere cannot fix.
func (rs *runState) fatal(ctx context.Context, err error) bool {
	var rpc *RPCError
	return ctx.Err() != nil || rs.local != nil || errors.As(err, &rpc) && rpc.Class == FailFatal
}

// startAndReplay builds the shard on m and replays epochs
// [0, fromEpoch) from the load history.
func (c *Coordinator) startAndReplay(ctx context.Context, rs *runState, sh *shardState, m MemberInfo, fromEpoch int) error {
	sres, err := opStart.send(ctx, c, rs, m.Addr, startRequest{
		Run: rs.id, Shard: sh.idx, Spec: SpecToWire(sh.spec), Telemetry: rs.telemetry,
	}, c.cfg.CallTimeout)
	if err != nil {
		return err
	}
	sh.initLoads = sres.Loads
	if rs.collectReplay {
		sh.replay = sh.replay[:0]
	}
	for k := 0; k < fromEpoch; k++ {
		step, err := opStep.send(ctx, c, rs, m.Addr, stepRequest{
			Run: rs.id, Shard: sh.idx, Epoch: k, Loads: rs.loadHist[k],
		}, c.cfg.CallTimeout)
		if err != nil {
			return err
		}
		if rs.collectReplay {
			sh.replay = append(sh.replay, step)
		}
	}
	return nil
}

// stepAll advances every shard one epoch in parallel. Each step is
// bounded by the barrier deadline: a straggler past it — or any member
// failure the transient retries inside call could not clear — fails
// the member over and retries the same epoch on the replacement, so
// one slow or partitioned member never stalls the whole barrier. A
// fatal protocol rejection aborts the run instead of cycling members.
func (c *Coordinator) stepAll(ctx context.Context, rs *runState, sts []*shardState, epoch int) ([]*stepResponse, error) {
	out := make([]*stepResponse, len(sts))
	errs := make([]error, len(sts))
	var wg sync.WaitGroup
	for i, sh := range sts {
		wg.Add(1)
		go func(i int, sh *shardState) {
			defer wg.Done()
			for {
				step, err := opStep.send(ctx, c, rs, sh.member.Addr, stepRequest{
					Run: rs.id, Shard: sh.idx, Epoch: epoch, Loads: rs.loadHist[epoch],
				}, c.cfg.BarrierDeadline)
				if err == nil {
					out[i] = step
					return
				}
				if rs.fatal(ctx, err) {
					errs[i] = err
					return
				}
				c.markDead(sh.member.ID)
				if err := c.placeShard(ctx, rs, sh, epoch, true); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, sh)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// finishAll finalizes every shard in parallel, failing over through a
// full replay (epochs [0, total)) when a member is lost at the line.
func (c *Coordinator) finishAll(ctx context.Context, rs *runState, sts []*shardState, total int) ([]*finishResponse, error) {
	out := make([]*finishResponse, len(sts))
	errs := make([]error, len(sts))
	var wg sync.WaitGroup
	for i, sh := range sts {
		wg.Add(1)
		go func(i int, sh *shardState) {
			defer wg.Done()
			for {
				fin, err := opFinish.send(ctx, c, rs, sh.member.Addr,
					finishRequest{Run: rs.id, Shard: sh.idx}, c.cfg.CallTimeout)
				if err == nil {
					out[i] = fin
					return
				}
				if rs.fatal(ctx, err) {
					errs[i] = err
					return
				}
				c.markDead(sh.member.ID)
				if err := c.placeShard(ctx, rs, sh, total, true); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, sh)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// abortTimeout bounds each best-effort shard abort: a black-holed
// member must not hang run teardown.
const abortTimeout = 2 * time.Second

// abortShards best-effort drops every shard of a run, in parallel and
// each under its own short deadline. It serves both teardown of a
// failed run and release of finished shards' idempotency caches.
func (c *Coordinator) abortShards(rs *runState, sts []*shardState) {
	var wg sync.WaitGroup
	for _, sh := range sts {
		if sh.member.ID == "" {
			continue // never placed
		}
		wg.Add(1)
		go func(sh *shardState) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), abortTimeout)
			defer cancel()
			_, _ = opAbort.send(ctx, c, rs, sh.member.Addr, abortRequest{Run: rs.id, Shard: sh.idx}, 0)
		}(sh)
	}
	wg.Wait()
}

func addLoads(dst, src []int) error {
	if len(src) != len(dst) {
		return fmt.Errorf("cluster: load vector length %d, want %d (shards on different deployments?)", len(src), len(dst))
	}
	for i, v := range src {
		dst[i] += v
	}
	return nil
}

// sameLoads verifies two load vectors are identical; the error names
// the first diverging cell.
func sameLoads(got, want []int) error {
	if len(got) != len(want) {
		return fmt.Errorf("load vector length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("cell %d load %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}

func maxLoads(dst, src []int) {
	for i, v := range src {
		if v > dst[i] {
			dst[i] = v
		}
	}
}

func sumLoads(loads []int) int {
	n := 0
	for _, v := range loads {
		n += v
	}
	return n
}

// sortFleetEvents fixes the merged epoch batch into the engine's
// canonical (time, UE) order. Stable: same-UE same-time events keep
// their shard-local append order, which is the per-session order the
// single-process sort preserves.
func sortFleetEvents(evs []fleet.Event) {
	sort.SliceStable(evs, func(a, b int) bool {
		if evs[a].Time != evs[b].Time {
			return evs[a].Time < evs[b].Time
		}
		return evs[a].UE < evs[b].UE
	})
}
