package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"rem/internal/cluster"
	"rem/internal/fault"
	"rem/internal/fleet"
	"rem/internal/obs"
	"rem/internal/trace"
	"rem/internal/transport"
)

// worldSeed roots the deployment every workload's fleets run in: the
// repository's default seed. The workload seed instead picks which UEs
// run (fleetOffset) or how fast (serve_mixed), so the amount of work is
// the same for every seed and only the inputs differ.
const worldSeed = 1

// fleetOffset maps a workload seed to the global UE id range a fleet
// workload runs: each UE's start position, speed jitter and every other
// per-UE draw come from its global id. Seed 1 is the range from 0.
func fleetOffset(seed int64, ues int) int {
	return int(uint64(seed-1)%(1<<16)) * ues
}

// wideSpec is fleet_wide: many UEs for a short time, so NewEngine and
// the first epoch's lazy stream seeding dominate the run.
func wideSpec(seed int64) fleet.Spec {
	return fleet.Spec{
		UEs: 10_000, UEOffset: fleetOffset(seed, 10_000),
		Dataset: trace.BeijingShanghai, Mode: trace.REM,
		DurationSec: 2, Seed: worldSeed,
	}
}

// longSpec is fleet_long: few UEs for a long time with every plane
// armed, so stepping, barriers, transport and telemetry dominate and
// the build is a small share of the run.
func longSpec(seed int64) fleet.Spec {
	return fleet.Spec{
		UEs: 1000, UEOffset: fleetOffset(seed, 1000),
		Dataset: trace.BeijingShanghai, Mode: trace.REM,
		DurationSec: 30, Seed: worldSeed,
		CellCapacity: 40, SpreadMarginDB: 3,
		Transport: &transport.Spec{Controller: transport.ControllerGCC, Workload: transport.WorkloadVideo},
		Faults: &fault.Plan{
			Name:      "perfbench",
			Outages:   []fault.CellOutage{{Cell: fault.AllCells, Start: 10, End: 11}},
			Signaling: []fault.SignalingFault{{Start: 0, End: 30, DropProb: 0.1, DelaySec: 0.02}},
		},
	}
}

// fleetRun is one fleet run's outputs and timings.
type fleetRun struct {
	res      *fleet.Result
	eng      *fleet.Engine
	tel      *obs.Telemetry
	timeline []obs.Event
	epochs   []float64 // StepEpoch wall seconds, in order
	allocs   []float64 // Progress.EpochAllocs per epoch (traced only)

	build, firstProgress, finish, total time.Duration
}

// runFleet builds, steps and finishes one fleet run, with a span
// around each call into the fleet layer. armObs arms telemetry and
// collects the timeline.
func runFleet(ctx context.Context, spec fleet.Spec, armObs bool, tr *tracer, parent int) (*fleetRun, error) {
	fr := &fleetRun{}
	var opts fleet.Options
	if armObs {
		fr.tel = obs.New(obs.Config{})
		opts.Telemetry = fr.tel
		opts.OnTimeline = func(evs []obs.Event) { fr.timeline = append(fr.timeline, evs...) }
	}
	if tr != nil {
		opts.Progress = func(p fleet.Progress) { fr.allocs = append(fr.allocs, float64(p.EpochAllocs)) }
	}
	t0 := time.Now()
	h := tr.begin("fleet.NewEngine", parent)
	eng, err := fleet.NewEngine(ctx, spec, opts)
	h.end()
	if err != nil {
		return nil, fmt.Errorf("NewEngine: %w", err)
	}
	fr.eng = eng
	fr.build = time.Since(t0)
	for done := false; !done; {
		h := tr.begin("fleet.StepEpoch", parent)
		t := time.Now()
		done, err = eng.StepEpoch(ctx)
		fr.epochs = append(fr.epochs, time.Since(t).Seconds())
		h.end()
		if err != nil {
			return nil, fmt.Errorf("StepEpoch: %w", err)
		}
		if fr.firstProgress == 0 {
			fr.firstProgress = time.Since(t0)
		}
	}
	t := time.Now()
	h = tr.begin("fleet.Finish", parent)
	fr.res = eng.Finish()
	h.end()
	fr.finish = time.Since(t)
	fr.total = time.Since(t0)
	return fr, nil
}

// fleetPass runs one fleet workload once and reports its figures. The
// result JSON (and, when armed, the timeline and metrics text) are
// digested so passes of one seed can be compared byte for byte.
func fleetPass(ctx context.Context, name string, seed int64, tr *tracer) (*passResult, error) {
	spec, armObs := wideSpec(seed), false
	if name == "fleet_long" {
		spec, armObs = longSpec(seed), true
	}
	pr := newPassResult(name, seed, tr != nil, cluster.SpecToWire(spec))
	root := tr.begin("bench."+name, 0)
	fr, err := runFleet(ctx, spec, armObs, tr, root.id)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	resJS, err := json.Marshal(fr.res)
	if err != nil {
		return nil, err
	}
	pr.Digests["result"] = digest(resJS)
	if armObs {
		h := tr.begin("obs.Snapshot", root.id)
		snap := fr.tel.Snapshot()
		pr.Layer["obs.snapshot_ms"] = ms(h.end())
		h = tr.begin("obs.PrometheusText", root.id)
		prom := snap.PrometheusText()
		pr.Layer["obs.prom_text_ms"] = ms(h.end())
		h = tr.begin("obs.MarshalNDJSON", root.id)
		nd := obs.MarshalNDJSON(fr.timeline)
		pr.Layer["obs.ndjson_ms"] = ms(h.end())
		pr.Digests["timeline"] = digest(nd)
		pr.Digests["metrics"] = digest(prom)
	}
	root.end()

	pr.Attempted, pr.E2E = 1, map[string]float64{
		"setup_s":          fr.build.Seconds(),
		"first_progress_s": fr.firstProgress.Seconds(),
		"run_s":            fr.total.Seconds(),
		"peak_rss_mb":      rss,
	}
	if tr == nil {
		return pr, nil
	}
	// Each fleet workload owns the layer figures it is the workload for
	// (see README.md): fleet_wide the build and seeding, fleet_long the
	// stepping, finish and behaviour counts.
	if name == "fleet_wide" {
		st := fr.eng.RNGStats()
		for k, v := range map[string]float64{
			"fleet.build_s":         fr.build.Seconds(),
			"fleet.epoch1_ms":       1000 * fr.epochs[0],
			"sim.streams":           float64(st.Streams),
			"sim.seeded":            float64(st.Seeded),
			"sim.tapes":             float64(st.Tapes),
			"sim.windows":           float64(st.Vecs),
			"sim.spills":            float64(st.Spills),
			"sim.live_bytes_per_ue": float64(st.LiveBytes) / float64(spec.UEs),
		} {
			pr.Layer[k] = v
		}
		return pr, nil
	}
	sum := fr.res.Summary
	later := fr.epochs[1:]
	flows := 0
	for _, ue := range sum.PerUE {
		if ue.Transport != nil {
			flows++
		}
	}
	for k, v := range map[string]float64{
		"fleet.epoch_p50_ms":     1000 * median(later),
		"fleet.epoch_p99_ms":     1000 * quantile(later, 0.99),
		"fleet.epoch_allocs_p50": median(fr.allocs[1:]),
		"fleet.finish_ms":        ms(fr.finish),
		"mobility.handovers":     float64(sum.Handovers),
		"mobility.failures":      float64(sum.Failures),
		"core.blocked":           float64(sum.Blocked),
		"obs.timeline_events":    float64(len(fr.timeline)),
		"transport.flows":        float64(flows),
		"transport.stalls":       float64(sum.Transport.Stalls),
		"transport.delivered_mb": sum.Transport.DeliveredMbit / 8,
	} {
		pr.Layer[k] = v
	}
	return pr, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
