package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	"rem/internal/fleet"
	"rem/internal/obs"
)

// Member executes shard engines on behalf of a coordinator. It is the
// server side of the shard protocol: start builds an engine for one
// contiguous UE range, step advances it one epoch under
// coordinator-supplied global loads, finish finalizes and ships the raw
// shard state, abort drops it. A member holds any number of shards from
// any number of runs; distinct shards step concurrently, one shard
// never does.
//
// The protocol is served once, by the start/step/finish/abort methods:
// RegisterHandlers mounts them behind thin HTTP decode/encode wrappers,
// and a coordinator's private in-process member is driven by calling
// them directly.
//
// The protocol is idempotent per epoch: the member caches the response
// of the last step (keyed by epoch) and of finish, so a coordinator
// whose response was lost in flight can retry the call and receive the
// exact cached bytes — the engine is stepped once and finalized once
// no matter how many times a request is replayed. Without this, a lost
// response would force a full shard failover (the engine would already
// sit one epoch ahead of what the coordinator saw).
type Member struct {
	mu     sync.Mutex
	shards map[string]*shardRun

	// stepReplays / finishReplays count protocol retries answered from
	// the idempotency cache (observable in tests and diagnostics).
	stepReplays   atomic.Int64
	finishReplays atomic.Int64
}

// NewMember builds an empty member.
func NewMember() *Member {
	return &Member{shards: make(map[string]*shardRun)}
}

// StepReplays reports how many step requests were answered from the
// idempotency cache instead of advancing an engine.
func (m *Member) StepReplays() int64 { return m.stepReplays.Load() }

// FinishReplays reports how many finish requests were answered from
// the idempotency cache instead of finalizing an engine.
func (m *Member) FinishReplays() int64 { return m.finishReplays.Load() }

// shardRun is one shard engine plus its per-epoch output buffers. The
// engine's hooks append into the buffers; each step hands them to its
// response and starts fresh ones, so a response — cached, or still
// being encoded for a retried call — is never mutated underneath its
// reader. lastStep and finResp are the idempotency caches: lastStep
// holds the response already sent for epoch-1, finResp the finish
// response (the engine is released once it exists).
type shardRun struct {
	mu       sync.Mutex
	eng      *fleet.Engine
	tel      *obs.Telemetry
	epoch    int
	done     bool
	events   []fleet.Event
	timeline []obs.Event
	allocs   uint64
	lastStep *stepResponse
	finResp  *finishResponse
}

func shardKey(run string, shard int) string {
	return fmt.Sprintf("%s/%d", run, shard)
}

// statusError is a member-side protocol failure tagged with the HTTP
// status the member answers it with; the coordinator's classifyStatus
// reads that status back to choose retry, failover or abort.
type statusError struct {
	status int
	err    error
}

func (e *statusError) Error() string { return e.err.Error() }
func (e *statusError) Unwrap() error { return e.err }

// statusOf is the HTTP status a protocol failure is answered with.
func statusOf(err error) int {
	var pe *statusError
	if errors.As(err, &pe) {
		return pe.status
	}
	return http.StatusInternalServerError
}

// op is one shard-protocol call: its HTTP path and the Member method
// that serves it. The HTTP handler and the coordinator's in-process
// transport both go through serve, so the protocol logic exists once.
type op[Req, Resp any] struct {
	path  string
	serve func(*Member, context.Context, Req) (Resp, error)
}

var (
	opStart  = op[startRequest, *startResponse]{pathShardStart, (*Member).start}
	opStep   = op[stepRequest, *stepResponse]{pathShardStep, (*Member).step}
	opFinish = op[finishRequest, *finishResponse]{pathShardFinish, (*Member).finish}
	opAbort  = op[abortRequest, struct{}]{pathShardAbort, (*Member).abort}
)

// handler is the HTTP face of the call: strict decode, serve, encode.
func (o op[Req, Resp]) handler(m *Member) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if err := decodeProtocol(w, r, &req); err != nil {
			protocolError(w, http.StatusBadRequest, err)
			return
		}
		resp, err := o.serve(m, r.Context(), req)
		if err != nil {
			protocolError(w, statusOf(err), err)
			return
		}
		writeProtocolJSON(w, resp)
	}
}

// RegisterHandlers mounts the shard protocol on mux.
func (m *Member) RegisterHandlers(mux *http.ServeMux) {
	mux.HandleFunc("POST "+opStart.path, opStart.handler(m))
	mux.HandleFunc("POST "+opStep.path, opStep.handler(m))
	mux.HandleFunc("POST "+opFinish.path, opFinish.handler(m))
	mux.HandleFunc("POST "+opAbort.path, opAbort.handler(m))
}

// Shards reports how many shard engines are currently resident.
func (m *Member) Shards() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.shards)
}

// start builds a shard engine. Restarting an existing key replaces the
// old engine: that is the failover path when a shard is reassigned
// back to a member that still holds a stale copy.
func (m *Member) start(ctx context.Context, req startRequest) (*startResponse, error) {
	spec, err := req.Spec.ToFleet()
	if err != nil {
		return nil, &statusError{http.StatusBadRequest, err}
	}
	sr := &shardRun{}
	opts := fleet.Options{
		Observer: func(ev fleet.Event) { sr.events = append(sr.events, ev) },
		Progress: func(p fleet.Progress) { sr.allocs = p.EpochAllocs },
	}
	if req.Telemetry {
		sr.tel = obs.New(obs.Config{})
		opts.Telemetry = sr.tel
		// The batch slice is pooled inside the engine — copy out.
		opts.OnTimeline = func(evs []obs.Event) { sr.timeline = append(sr.timeline, evs...) }
	}
	eng, err := fleet.NewEngine(ctx, spec, opts)
	if err != nil {
		return nil, &statusError{http.StatusBadRequest, err}
	}
	sr.eng = eng
	m.mu.Lock()
	m.shards[shardKey(req.Run, req.Shard)] = sr
	m.mu.Unlock()
	return &startResponse{Loads: eng.Loads()}, nil
}

// lookup finds a resident shard, or reports it unknown (404).
func (m *Member) lookup(run string, shard int) (*shardRun, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if sr := m.shards[shardKey(run, shard)]; sr != nil {
		return sr, nil
	}
	return nil, &statusError{http.StatusNotFound, fmt.Errorf("cluster: unknown shard %s", shardKey(run, shard))}
}

func (m *Member) drop(run string, shard int) {
	m.mu.Lock()
	delete(m.shards, shardKey(run, shard))
	m.mu.Unlock()
}

// step installs the global loads and advances the shard one epoch. A
// request for the epoch just stepped is a retry after a lost response
// and is answered from the idempotency cache without touching the
// engine. Any engine failure drops the shard and reports 500 — the
// coordinator treats the member as lost for this shard and reassigns,
// so a half-stepped engine is never stepped again.
func (m *Member) step(ctx context.Context, req stepRequest) (*stepResponse, error) {
	sr, err := m.lookup(req.Run, req.Shard)
	if err != nil {
		return nil, err
	}
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if sr.lastStep != nil && req.Epoch == sr.epoch-1 {
		// Duplicate of the last step: the response never reached the
		// coordinator. Return the cached response; the engine already
		// advanced and must not advance again.
		m.stepReplays.Add(1)
		return sr.lastStep, nil
	}
	if req.Epoch != sr.epoch || sr.finResp != nil {
		m.drop(req.Run, req.Shard)
		return nil, &statusError{http.StatusConflict,
			fmt.Errorf("cluster: shard %s at epoch %d, coordinator asked for %d", shardKey(req.Run, req.Shard), sr.epoch, req.Epoch)}
	}
	if err := sr.eng.SetLoads(req.Loads); err != nil {
		m.drop(req.Run, req.Shard)
		return nil, &statusError{http.StatusInternalServerError, err}
	}
	sr.events, sr.timeline = nil, nil
	done, err := sr.eng.StepEpoch(ctx)
	if err != nil {
		m.drop(req.Run, req.Shard)
		return nil, &statusError{http.StatusInternalServerError, err}
	}
	sr.epoch++
	sr.done = done
	sr.lastStep = &stepResponse{
		Done:     done,
		Events:   sr.events,
		Loads:    sr.eng.Loads(),
		Timeline: sr.timeline,
		Allocs:   sr.allocs,
	}
	return sr.lastStep, nil
}

// finish finalizes a completed shard and ships its raw state: per-UE
// totals under global ids, shard-local admission and cell tallies, the
// metrics dump and the final timeline batch (TCP stall replay
// included). The response is cached and the engine released; the
// shard entry stays resident so a retry after a lost response replays
// the cached response (the engine is finalized exactly once), until the
// coordinator's post-run abort sweeps it away.
func (m *Member) finish(_ context.Context, req finishRequest) (*finishResponse, error) {
	sr, err := m.lookup(req.Run, req.Shard)
	if err != nil {
		return nil, err
	}
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if sr.finResp != nil {
		m.finishReplays.Add(1)
		return sr.finResp, nil
	}
	if !sr.done {
		return nil, &statusError{http.StatusConflict, fmt.Errorf("cluster: shard %s not done", shardKey(req.Run, req.Shard))}
	}
	sr.timeline = nil
	results := sr.eng.FinishResults()
	offset := sr.eng.Spec().UEOffset
	resp := &finishResponse{
		UEs:     make([]UETotals, len(results)),
		Blocked: sr.eng.Blocked(),
		Cells:   sr.eng.CellStats(),
	}
	for i, res := range results {
		resp.UEs[i] = totalsFromResult(offset+i, res)
	}
	if tots := sr.eng.TransportTotals(); tots != nil {
		for i := range resp.UEs {
			tt := tots[i]
			resp.UEs[i].Transport = &tt
		}
	}
	if sr.tel != nil {
		resp.Metrics = sr.tel.Registry.Dump()
		resp.Timeline = sr.timeline
	}
	// Release the engine and telemetry plane — only the cached
	// response is needed from here on.
	sr.eng, sr.tel, sr.lastStep = nil, nil, nil
	sr.finResp = resp
	return resp, nil
}

// abort drops a shard without finalizing it (run canceled, or the
// shard was reassigned elsewhere).
func (m *Member) abort(_ context.Context, req abortRequest) (struct{}, error) {
	m.drop(req.Run, req.Shard)
	return struct{}{}, nil
}

// maxProtocolBody bounds every cluster protocol request body. It sits
// well above remserve's default 1 MiB spec limit plus a per-cell load
// vector, so no valid call comes near it.
const maxProtocolBody = 8 << 20

// decodeProtocol strictly decodes one protocol request body: at most
// maxProtocolBody bytes, no unknown fields, nothing after the value.
// Every failure, an oversize body included, is the caller's 400 — which
// the coordinator classifies as fatal rather than failing over.
func decodeProtocol(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxProtocolBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("cluster: trailing data after request body")
	}
	return nil
}

func protocolError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(errorResponse{Error: err.Error()})
}

func writeProtocolJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
