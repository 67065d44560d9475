package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"rem/internal/chanmodel"
	"rem/internal/cluster"
	"rem/internal/crossband"
	"rem/internal/dsp"
	"rem/internal/fleet"
	"rem/internal/obs"
	"rem/internal/ofdm"
	"rem/internal/sim"
	"rem/internal/trace"
)

// probesPass measures the layers no workload can time from outside a
// single call: kernels on fixed inputs, stream seeding, the shared
// world build, one cluster run behind timing middleware, and the
// telemetry and transport planes against disarmed twins. It runs only
// in traced mode.
func probesPass(ctx context.Context, seed int64, tr *tracer) (*passResult, error) {
	pr := newPassResult("probes", seed, true, nil)
	root := tr.begin("bench.probes", 0)
	defer root.end()
	kernelProbes(tr, root.id, pr)
	simProbes(seed, tr, root.id, pr)
	if err := sharedBuildProbe(seed, tr, root.id, pr); err != nil {
		return nil, err
	}
	if err := clusterProbe(ctx, seed, tr, root.id, pr); err != nil {
		return nil, err
	}
	if err := overheadProbe(ctx, seed, tr, root.id, pr); err != nil {
		return nil, err
	}
	return pr, nil
}

// perCall times batches of n calls of f, one span per batch, and
// returns the median per-call cost.
func perCall(tr *tracer, parent int, name string, batches, n int, f func()) time.Duration {
	var costs []float64
	for b := 0; b < batches; b++ {
		h := tr.begin(name, parent)
		for i := 0; i < n; i++ {
			f()
		}
		costs = append(costs, float64(h.end())/float64(n))
	}
	return time.Duration(median(costs))
}

// sink keeps kernel results live.
var sink float64

// kernelProbes times the innermost PHY kernels on the fixed inputs
// cmd/rembench also uses.
func kernelProbes(tr *tracer, parent int, pr *passResult) {
	lte := ofdm.LTE()
	eva := chanmodel.Generate(sim.NewRNG(11), chanmodel.GenConfig{
		Profile: chanmodel.EVA, CarrierHz: 2.6e9, SpeedMS: 97.2, Normalize: true,
	})
	dst := dsp.NewGrid(72, 14)
	d := perCall(tr, parent, "chanmodel.TFResponseInto", 7, 300, func() {
		eva.TFResponseInto(dst, lte.DeltaF, lte.SymbolT, 0)
	})
	pr.Layer["chanmodel.tf_response_us"] = float64(d) / 1e3

	etu := chanmodel.Generate(sim.NewRNG(12), chanmodel.GenConfig{
		Profile: chanmodel.ETU, CarrierHz: 2.6e9, SpeedMS: 97.2, Normalize: true,
	})
	h := etu.TFResponse(72, 14, lte.DeltaF, lte.SymbolT, 0)
	d = perCall(tr, parent, "ofdm.BlockBLER", 7, 1000, func() {
		sink += ofdm.BlockBLER(h, 0.1, 0.02, ofdm.QAM16, 0.5)
	})
	pr.Layer["ofdm.block_bler_us"] = float64(d) / 1e3

	cfg := crossband.Config{M: 128, N: 64, DeltaF: 60e3, SymT: 1.0 / 60e3, MaxPaths: 8}
	est, err := crossband.NewEstimator(cfg)
	if err != nil {
		pr.fail("crossband.NewEstimator: %v", err)
		return
	}
	ch := &chanmodel.Channel{Paths: []chanmodel.Path{
		{Gain: 0.9, Delay: 260e-9, Doppler: 595},
		{Gain: 0.3i, Delay: 700e-9, Doppler: -310},
	}}
	h1 := ch.DDResponse(cfg.M, cfg.N, cfg.DeltaF, cfg.SymT, 0).Matrix()
	var estErr error
	d = perCall(tr, parent, "crossband.Estimate", 7, 3, func() {
		if _, _, err := est.Estimate(h1, 1.835e9, 2.665e9); err != nil {
			estErr = err
		}
	})
	if estErr != nil {
		pr.fail("crossband.Estimate: %v", estErr)
	}
	pr.Layer["crossband.svd_estimate_ms"] = float64(d) / 1e6
}

// simProbes times first-draw seeding per stream: arena tapes at the
// budget a 2-s fleet UE's tick-driven streams get, arena windows, and
// the eager heap generators the single-UE path builds.
func simProbes(seed int64, tr *tracer, parent int, pr *passResult) {
	const n = 2000
	names := make([]string, n)
	for i := range names {
		names[i] = "perfbench." + strconv.Itoa(i)
	}
	tapeBudget := int(wideSpec(seed).DurationSec/0.01) + 6
	firstDraw := func(name string, budget int) float64 {
		var costs []float64
		for b := 0; b < 5; b++ {
			st := sim.NewArena().Streams(seed)
			rngs := make([]*sim.RNG, n)
			for i := range rngs {
				rngs[i] = st.StreamBudget(names[i], budget)
			}
			h := tr.begin(name, parent)
			for _, g := range rngs {
				sink += g.Float64()
			}
			costs = append(costs, float64(h.end())/1e3/n)
		}
		return median(costs)
	}
	pr.Layer["sim.seed_us"] = firstDraw("sim.ArenaTapeFirstDraw", tapeBudget)
	pr.Layer["sim.window_seed_us"] = firstDraw("sim.ArenaWindowFirstDraw", 0)
	d := perCall(tr, parent, "sim.NewStreams", 5, 1, func() {
		st := sim.NewStreams(seed)
		for _, name := range names {
			sink += st.Stream(name).Float64()
		}
	})
	pr.Layer["sim.eager_stream_us"] = float64(d) / 1e3 / n
}

// sharedBuildProbe calls trace.BuildFleetShared with the config
// fleet.NewEngine derives from the fleet_wide spec.
func sharedBuildProbe(seed int64, tr *tracer, parent int, pr *passResult) error {
	spec := wideSpec(seed).Defaulted()
	cfg := trace.FleetConfig{BuildConfig: trace.BuildConfig{
		Dataset: trace.Describe(spec.Dataset), SpeedKmh: spec.SpeedKmh, Mode: spec.Mode,
		Duration: spec.DurationSec, Seed: spec.Seed,
	}}
	var err error
	d := perCall(tr, parent, "trace.BuildFleetShared", 5, 1, func() {
		if _, e := trace.BuildFleetShared(cfg); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("BuildFleetShared: %w", err)
	}
	pr.Layer["trace.shared_build_ms"] = float64(d) / 1e6
	return nil
}

// memberCall is one shard RPC as the member's middleware saw it.
type memberCall struct {
	path               string
	epoch              int
	dur                time.Duration
	reqBytes, respSize int
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += n
	return n, err
}

// clusterProbe runs the serve spec sharded two ways through an
// in-process cluster.Coordinator and two cluster.Members on loopback,
// each member behind middleware that times its handlers. The merged
// result must equal the single-process run byte for byte.
func clusterProbe(ctx context.Context, seed int64, tr *tracer, parent int, pr *passResult) error {
	wire := serveSpec(seed, 0, 0)
	spec := fleet.Spec{
		UEs: wire.UEs, Dataset: trace.BeijingShanghai, Mode: trace.REM, SpeedKmh: wire.SpeedKmh,
		DurationSec: wire.DurationSec, Seed: wire.Seed, EpochSec: wire.EpochSec,
		CellCapacity: wire.CellCapacity, SpreadMarginDB: wire.SpreadMarginDB,
	}
	run := tr.begin("cluster.RunFleet", parent)
	var mu sync.Mutex
	var calls []memberCall
	coord := cluster.NewCoordinator(cluster.Config{MemberTTL: time.Hour})
	var members []*cluster.Member
	for i := 0; i < 2; i++ {
		m := cluster.NewMember()
		members = append(members, m)
		mux := http.NewServeMux()
		m.RegisterHandlers(mux)
		timed := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			var req struct {
				Epoch int `json:"epoch"`
			}
			json.Unmarshal(body, &req) // every shard call is JSON; only step carries an epoch
			cw := &countingWriter{ResponseWriter: w}
			mux.ServeHTTP(cw, r)
			end := time.Now()
			path := r.URL.Path[strings.LastIndexByte(r.URL.Path, '/')+1:]
			tr.record("cluster.member."+path, run.id, start, end)
			mu.Lock()
			calls = append(calls, memberCall{path: path, epoch: req.Epoch, dur: end.Sub(start), reqBytes: len(body), respSize: cw.n})
			mu.Unlock()
		})
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: timed}
		go srv.Serve(l)
		defer srv.Close()
		coord.Register(fmt.Sprintf("m%d", i), "http://"+l.Addr().String())
	}
	var barriers []time.Time
	art, err := coord.RunFleet(ctx, spec, cluster.RunOptions{
		RunID: "perfbench", Shards: 2, Telemetry: true,
		Hooks: cluster.RunHooks{OnBarrier: func(int, []int) { barriers = append(barriers, time.Now()) }},
	})
	run.end()
	pr.Attempted++
	if err != nil {
		return fmt.Errorf("cluster RunFleet: %w", err)
	}
	local, err := fleet.RunWithOptions(ctx, spec, fleet.Options{Telemetry: obs.New(obs.Config{})})
	if err != nil {
		return fmt.Errorf("local twin of the cluster run: %w", err)
	}
	a, _ := json.Marshal(art.Result)
	b, _ := json.Marshal(local)
	if !bytes.Equal(a, b) {
		pr.fail("cluster result differs from the single-process run")
	}

	// Barrier k (k >= 1) closes epoch k-1: its interval is the epoch's
	// whole round, and the part the slowest member's step does not
	// cover is RPC, encoding and merge overhead.
	slowest := make(map[int]time.Duration)
	var steps, reqB, respB []float64
	for _, c := range calls {
		if c.path != "step" {
			continue
		}
		steps = append(steps, ms(c.dur))
		reqB = append(reqB, float64(c.reqBytes))
		respB = append(respB, float64(c.respSize))
		slowest[c.epoch] = max(slowest[c.epoch], c.dur)
	}
	var rounds, overhead []float64
	for k := 1; k < len(barriers); k++ {
		d := barriers[k].Sub(barriers[k-1])
		rounds = append(rounds, ms(d))
		overhead = append(overhead, ms(d-slowest[k-1]))
	}
	var replays int64
	for _, m := range members {
		replays += m.StepReplays() + m.FinishReplays()
	}
	for k, v := range map[string]float64{
		"cluster.barrier_p50_ms":     median(rounds),
		"cluster.barrier_p99_ms":     quantile(rounds, 0.99),
		"cluster.member_step_p50_ms": median(steps),
		"cluster.member_step_p99_ms": quantile(steps, 0.99),
		"cluster.rpc_overhead_ms":    median(overhead),
		"cluster.step_req_bytes":     median(reqB),
		"cluster.step_resp_bytes":    median(respB),
		"cluster.replays":            float64(replays),
	} {
		pr.Layer[k] = v
	}
	return nil
}

// overheadProbe times the fleet_long shape (shortened so rounds stay
// cheap, still spanning the outage) fully armed against twins with
// telemetry or transport disarmed, interleaved round by round. Each
// overhead is reported as the median round's ratio with the lowest
// and highest round as its interval.
func overheadProbe(ctx context.Context, seed int64, tr *tracer, parent int, pr *passResult) error {
	full := longSpec(seed)
	full.UEs, full.DurationSec = 500, 12
	noTransport := full
	noTransport.Transport = nil
	type variant struct {
		name   string
		spec   fleet.Spec
		armObs bool
	}
	variants := []variant{{"full", full, true}, {"no_obs", full, false}, {"no_transport", noTransport, true}}
	const rounds = 3
	times := make(map[string][]float64)
	for r := 0; r < rounds; r++ {
		for i := range variants {
			v := variants[(i+r)%len(variants)]
			h := tr.begin("fleet.Twin", parent)
			fr, err := runFleet(ctx, v.spec, v.armObs, nil, 0)
			h.end()
			if err != nil {
				return fmt.Errorf("overhead twin %s: %w", v.name, err)
			}
			times[v.name] = append(times[v.name], fr.total.Seconds())
		}
	}
	for _, o := range []struct{ key, twin string }{{"obs", "no_obs"}, {"transport", "no_transport"}} {
		var fracs []float64
		for r := 0; r < rounds; r++ {
			fracs = append(fracs, times["full"][r]/times[o.twin][r]-1)
		}
		pr.Layer[o.key+".overhead_frac"] = median(fracs)
		pr.Layer[o.key+".overhead_frac_lo"] = quantile(fracs, 0)
		pr.Layer[o.key+".overhead_frac_hi"] = quantile(fracs, 1)
	}
	return nil
}
