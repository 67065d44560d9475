package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Config parameterizes a Coordinator. The zero value works.
type Config struct {
	// MemberTTL is how long a member stays live after its last join or
	// heartbeat (default 5s).
	MemberTTL time.Duration
	// MemberWait bounds how long a run waits for enough members to
	// join before failing (default 30s).
	MemberWait time.Duration
	// CallTimeout bounds each shard RPC (default 2m, negative
	// disables). A blown deadline counts as a member failure — the
	// shard fails over rather than stalling the run.
	CallTimeout time.Duration
	// BarrierDeadline bounds one shard's epoch step specifically
	// (default: CallTimeout). A member that cannot clear an epoch
	// barrier within it is a straggler: its shard is reassigned so one
	// slow member never stalls every other shard.
	BarrierDeadline time.Duration
	// CallRetries is how many times a transiently failed call
	// (connection refused/reset, lost or truncated response, 502/503/
	// 504) is retried against the same member before failing over
	// (default 2, negative disables). Retries are safe because the
	// member protocol is idempotent: a retried step or finish returns
	// the cached response instead of re-advancing the engine.
	CallRetries int
	// RetrySeed seeds the jittered backoff schedule (default 1).
	RetrySeed int64
	// HTTPClient dials members (default http.DefaultClient).
	HTTPClient *http.Client
}

func (c Config) defaulted() Config {
	if c.MemberTTL <= 0 {
		c.MemberTTL = 5 * time.Second
	}
	if c.MemberWait <= 0 {
		c.MemberWait = 30 * time.Second
	}
	if c.CallTimeout == 0 {
		c.CallTimeout = 2 * time.Minute
	}
	if c.BarrierDeadline <= 0 {
		c.BarrierDeadline = c.CallTimeout
	}
	if c.CallRetries == 0 {
		c.CallRetries = 2
	}
	if c.CallRetries < 0 {
		c.CallRetries = 0
	}
	if c.HTTPClient == nil {
		c.HTTPClient = http.DefaultClient
	}
	return c
}

// Coordinator owns the member registry and drives clustered runs. It
// is the server side of join/heartbeat and the client side of the
// shard protocol.
type Coordinator struct {
	cfg Config
	bo  *backoff
	// local is the private member in-process runs (RunOptions.Shards
	// == 0) execute on. It is never exposed over HTTP: remote members
	// key shards by run ID, and IDs recur across coordinators.
	local *Member

	mu      sync.Mutex
	members map[string]*memberState
}

// memberState is one registered member.
type memberState struct {
	ID       string
	Addr     string
	lastSeen time.Time
	// dead marks a member the coordinator observed failing a shard
	// call. A fresh join or heartbeat clears it (the process came
	// back); until then the member gets no new shards even if
	// heartbeats still arrive, because its engines are gone.
	dead bool
}

// NewCoordinator builds a coordinator with an empty member registry.
func NewCoordinator(cfg Config) *Coordinator {
	cfg = cfg.defaulted()
	return &Coordinator{cfg: cfg, bo: newBackoff(cfg.RetrySeed), local: NewMember(), members: make(map[string]*memberState)}
}

// RegisterHandlers mounts the membership endpoints on mux.
func (c *Coordinator) RegisterHandlers(mux *http.ServeMux) {
	mux.HandleFunc("POST "+pathJoin, c.handleJoin)
	mux.HandleFunc("POST "+pathHeartbeat, c.handleJoin)
	mux.HandleFunc("GET "+pathMembers, c.handleMembers)
}

// handleJoin registers or refreshes a member. Heartbeats share the
// handler: a heartbeat from an unknown member re-registers it, which is
// what makes a coordinator restart self-healing — the registry refills
// within one heartbeat interval.
func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if err := decodeProtocol(w, r, &req); err != nil {
		protocolError(w, http.StatusBadRequest, err)
		return
	}
	if req.ID == "" || req.Addr == "" {
		protocolError(w, http.StatusBadRequest, fmt.Errorf("cluster: join needs id and addr"))
		return
	}
	c.Register(req.ID, req.Addr)
	writeProtocolJSON(w, struct{}{})
}

// Register adds or refreshes a member, clearing any dead mark — the
// member process (re)announced itself, so its engines are fresh.
func (c *Coordinator) Register(id, addr string) {
	c.mu.Lock()
	c.members[id] = &memberState{ID: id, Addr: addr, lastSeen: time.Now()}
	c.mu.Unlock()
}

func (c *Coordinator) handleMembers(w http.ResponseWriter, r *http.Request) {
	writeProtocolJSON(w, membersResponse{Members: c.Members()})
}

// Members lists every registered member sorted by ID, with liveness.
func (c *Coordinator) Members() []MemberInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	cutoff := time.Now().Add(-c.cfg.MemberTTL)
	out := make([]MemberInfo, 0, len(c.members))
	for _, m := range c.members {
		out = append(out, MemberInfo{ID: m.ID, Addr: m.Addr, Live: !m.dead && m.lastSeen.After(cutoff)})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// LiveCount reports how many members are currently live.
func (c *Coordinator) LiveCount() int {
	n := 0
	for _, m := range c.Members() {
		if m.Live {
			n++
		}
	}
	return n
}

// liveMembers returns the live members sorted by ID. The sort makes
// shard placement a pure function of the membership set, so two
// coordinators with the same members place shards identically.
func (c *Coordinator) liveMembers() []MemberInfo {
	all := c.Members()
	live := make([]MemberInfo, 0, len(all))
	for _, m := range all {
		if m.Live {
			live = append(live, m)
		}
	}
	return live
}

// markDead records that a member failed a shard call.
func (c *Coordinator) markDead(id string) {
	c.mu.Lock()
	if m := c.members[id]; m != nil {
		m.dead = true
	}
	c.mu.Unlock()
}

// waitForMembers blocks until at least n members are live, the wait
// budget runs out, or ctx ends.
func (c *Coordinator) waitForMembers(ctx context.Context, n int) error {
	deadline := time.Now().Add(c.cfg.MemberWait)
	for {
		if c.LiveCount() >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: %d live members after %s, need %d", c.LiveCount(), c.cfg.MemberWait, n)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// call round-trips one protocol call with a per-call deadline,
// classifying any failure and retrying transient ones in place with
// seeded jittered backoff. timeout <= 0 leaves the call bounded only
// by ctx. The returned error, when non-nil and not a bare context
// error, is an *RPCError whose Class tells the caller whether to fail
// the member over or abort the run.
func (c *Coordinator) call(ctx context.Context, addr, path string, in, out any, timeout time.Duration) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	for attempt := 0; ; attempt++ {
		rerr := c.do(ctx, addr, path, body, out, timeout)
		if rerr == nil {
			return nil
		}
		if ctx.Err() != nil {
			return rerr
		}
		var rpc *RPCError
		if !errors.As(rerr, &rpc) || rpc.Class != FailTransient || attempt >= c.cfg.CallRetries {
			return rerr
		}
		c.bo.sleep(ctx, attempt)
	}
}

// send delivers one protocol call for a shard of rs: as a direct method
// call on the coordinator's private member when rs runs in-process, or
// over HTTP to the member at addr through call.
func (o op[Req, Resp]) send(ctx context.Context, c *Coordinator, rs *runState, addr string, req Req, timeout time.Duration) (Resp, error) {
	if rs.local != nil {
		return o.serve(rs.local, ctx, req)
	}
	var resp Resp
	err := c.call(ctx, addr, o.path, req, &resp, timeout)
	return resp, err
}

// do executes one attempt of a protocol call.
func (c *Coordinator) do(ctx context.Context, addr, path string, body []byte, out any, timeout time.Duration) error {
	cctx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		cctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(cctx, http.MethodPost, addr+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return &RPCError{Path: path, Class: classifyTransport(err, cctx, ctx), Err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		rerr := fmt.Errorf("%s", resp.Status)
		var e errorResponse
		if json.Unmarshal(raw, &e) == nil && e.Error != "" {
			rerr = fmt.Errorf("%s: %s", resp.Status, e.Error)
		}
		return &RPCError{Path: path, Status: resp.StatusCode, Class: classifyStatus(resp.StatusCode), Err: rerr}
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		// The response was cut mid-body (lost-response fault): the call
		// likely executed, so a transient retry fetches the cached bytes.
		return &RPCError{Path: path, Class: classifyTransport(err, cctx, ctx), Err: err}
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return &RPCError{Path: path, Class: FailTransient, Err: fmt.Errorf("decoding response: %w", err)}
	}
	return nil
}

// HeartbeatOpts tunes the member-side heartbeat loop beyond the basic
// interval. The zero value gives the defaults.
type HeartbeatOpts struct {
	// Interval between beats (default 1s).
	Interval time.Duration
	// Retries is how many in-tick retries a failed beat gets, each
	// after a jittered backoff, before the tick counts as a miss
	// (default 2, negative disables).
	Retries int
	// Seed seeds the retry jitter (default 1).
	Seed int64
	// OnMiss is called after every missed beat (retries exhausted)
	// with the consecutive-miss count and the last error; a successful
	// beat resets the count. Use it to log and count — silence here
	// was how a partitioned member used to age out unnoticed.
	OnMiss func(consecutive int, err error)
}

// Heartbeat joins coordinator as member id (dialed back at advertise)
// and refreshes the registration every interval until ctx ends. The
// first join is synchronous so callers know the member is visible; the
// loop then runs on the calling goroutine (start it with go).
func Heartbeat(ctx context.Context, client *http.Client, coordinator, id, advertise string, interval time.Duration) error {
	return HeartbeatWithOpts(ctx, client, coordinator, id, advertise, HeartbeatOpts{Interval: interval})
}

// HeartbeatWithOpts is Heartbeat with in-tick jittered retries and a
// miss hook. A beat that fails is retried opts.Retries times inside
// its tick; only when all attempts fail does the tick count as a miss
// and OnMiss fire. The coordinator re-registers a member on any
// successful beat, so a run of misses shorter than the member TTL is
// invisible to placement.
func HeartbeatWithOpts(ctx context.Context, client *http.Client, coordinator, id, advertise string, opts HeartbeatOpts) error {
	if client == nil {
		client = http.DefaultClient
	}
	if opts.Interval <= 0 {
		opts.Interval = time.Second
	}
	if opts.Retries == 0 {
		opts.Retries = 2
	}
	if opts.Retries < 0 {
		opts.Retries = 0
	}
	bo := newBackoff(opts.Seed)
	join := func(path string) error {
		body, err := json.Marshal(joinRequest{ID: id, Addr: advertise})
		if err != nil {
			return err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, coordinator+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			return fmt.Errorf("cluster: join %s: %s", coordinator, resp.Status)
		}
		return nil
	}
	beat := func() error {
		var err error
		for attempt := 0; ; attempt++ {
			err = join(pathHeartbeat)
			if err == nil || ctx.Err() != nil || attempt >= opts.Retries {
				return err
			}
			bo.sleep(ctx, attempt)
		}
	}
	if err := join(pathJoin); err != nil {
		return err
	}
	misses := 0
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(opts.Interval):
			if err := beat(); err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				misses++
				if opts.OnMiss != nil {
					opts.OnMiss(misses, err)
				}
			} else {
				misses = 0
			}
		}
	}
}
