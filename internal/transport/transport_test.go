package transport

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"testing/quick"

	"rem/internal/mobility"
	"rem/internal/sim"
)

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"zero defaults", Spec{}, true},
		{"gcc video", Spec{Controller: "gcc", Workload: "video"}, true},
		{"bbr bulk", Spec{Controller: "bbr", Workload: "bulk"}, true},
		{"web", Spec{Workload: "web"}, true},
		{"unknown controller", Spec{Controller: "cubic"}, false},
		{"unknown workload", Spec{Workload: "voip"}, false},
		{"inverted clamp", Spec{MinRateMbps: 10, MaxRateMbps: 5}, false},
		{"loss at 1", Spec{LossRate: 1}, false},
		{"negative rtt", Spec{BaseRTTSec: -0.1}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if tc.ok && err != nil {
				t.Fatalf("Validate() = %v, want nil", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("Validate() = nil, want error")
			}
		})
	}
}

func TestDefaultedFillsEveryField(t *testing.T) {
	d := Spec{}.Defaulted()
	if d.Controller != ControllerGCC || d.Workload != WorkloadVideo {
		t.Fatalf("defaults = %s/%s", d.Controller, d.Workload)
	}
	for name, v := range map[string]float64{
		"video rate": d.VideoRateMbps, "start rate": d.StartRateMbps,
		"min rate": d.MinRateMbps, "max rate": d.MaxRateMbps,
		"bandwidth": d.BandwidthMHz, "base rtt": d.BaseRTTSec,
		"jitter": d.JitterStdSec, "loss": d.LossRate,
		"base rto": d.Stall.BaseRTOSec, "max rto": d.Stall.MaxRTOSec,
	} {
		if v <= 0 {
			t.Errorf("defaulted %s = %g, want > 0", name, v)
		}
	}
}

// TestStallParityWithTcpsim pins ReplayStalls to a literal table of
// stalls captured from the former tcpsim package, the RTO model this
// one replaced: six outage lists (empty, sub-RTO, backoff, overlapping,
// RTO-capped, nested) under the default timers, a raised base with a
// low cap, and a cap below the base. Equality is exact, not within a
// tolerance.
func TestStallParityWithTcpsim(t *testing.T) {
	lists := [][]mobility.Outage{
		nil,
		{{Start: 1, Duration: 0.05}},
		{{Start: 0, Duration: 2}},
		{{Start: 0, Duration: 1}, {Start: 0.5, Duration: 1}, {Start: 10, Duration: 0.3}},
		{{Start: 30, Duration: 120}}, // long enough to hit the RTO cap
		{{Start: 5, Duration: 0.3}, {Start: 5.1, Duration: 0.1}, {Start: 7, Duration: 3}},
	}
	cfgs := []StallConfig{{}, {BaseRTOSec: 0.5, MaxRTOSec: 4}, {BaseRTOSec: 1, MaxRTOSec: 0.5}}
	want := [][][]Stall{
		{ // defaults: 0.2 s base, 60 s cap
			nil,
			{{1, 0.2, 0.2, 1}},
			{{0, 3, 1.6, 4}},
			{{0, 3, 1.6, 4}, {10, 0.6000000000000001, 0.4, 2}},
			{{30, 162.2, 60, 10}},
			{{5, 0.6000000000000001, 0.4, 2}, {7, 3, 1.6, 4}},
		},
		{ // 0.5 s base, 4 s cap
			nil,
			{{1, 0.5, 0.5, 1}},
			{{0, 3.5, 2, 3}},
			{{0, 1.5, 1, 2}, {10, 0.5, 0.5, 1}},
			{{30, 123.5, 4, 33}},
			{{5, 0.5, 0.5, 1}, {7, 3.5, 2, 3}},
		},
		{ // cap below base: constant 1 s backoff
			nil,
			{{1, 1, 1, 1}},
			{{0, 2, 1, 2}},
			{{0, 2, 1, 2}, {10, 1, 1, 1}},
			{{30, 120, 1, 120}},
			{{5, 1, 1, 1}, {7, 3, 1, 3}},
		},
	}
	for ci, cfg := range cfgs {
		for li, outs := range lists {
			got := ReplayStalls(outs, cfg)
			if len(got) != len(want[ci][li]) {
				t.Fatalf("cfg %d list %d: %d stalls, want %d", ci, li, len(got), len(want[ci][li]))
			}
			for i, w := range want[ci][li] {
				if got[i] != w {
					t.Fatalf("cfg %d list %d stall %d: %+v, want %+v", ci, li, i, got[i], w)
				}
			}
		}
	}
}

// TestStallConfigClampBelowBase: a cap below the base RTO pins to the
// base (constant backoff) instead of silently jumping to the 60 s
// default.
func TestStallConfigClampBelowBase(t *testing.T) {
	st := StallForOutage(mobility.Outage{Duration: 100}, StallConfig{BaseRTOSec: 1, MaxRTOSec: 0.5})
	if st.FinalRTO != 1 {
		t.Fatalf("final RTO = %g, want constant 1 (cap pinned to base)", st.FinalRTO)
	}
}

func TestStallRTOCapBelowBaseStaysConstant(t *testing.T) {
	// With the cap pinned at the base, backoff never grows: a long
	// outage retransmits every BaseRTOSec.
	st := StallForOutage(mobility.Outage{Duration: 10}, StallConfig{BaseRTOSec: 1, MaxRTOSec: 0.5})
	if st.FinalRTO != 1 {
		t.Fatalf("final RTO = %g, want constant 1", st.FinalRTO)
	}
	if st.Retransmissions != 10 {
		t.Fatalf("retransmissions = %d, want 10 (one per second)", st.Retransmissions)
	}
}

// TestStallConfigNormalization: the zero StallConfig is usable as is;
// it takes the default timers and still yields a stall past the outage.
func TestStallConfigNormalization(t *testing.T) {
	st := StallForOutage(mobility.Outage{Duration: 1}, StallConfig{})
	if st.Duration <= 1 {
		t.Fatal("zero config should normalize to defaults and still work")
	}
}

func TestStallConfigDefaultedClamps(t *testing.T) {
	cases := []struct {
		name     string
		in       StallConfig
		wantBase float64
		wantMax  float64
	}{
		{"zero fills defaults", StallConfig{}, 0.2, 60},
		{"explicit values kept", StallConfig{BaseRTOSec: 0.5, MaxRTOSec: 30}, 0.5, 30},
		{"cap below base pins to base", StallConfig{BaseRTOSec: 1, MaxRTOSec: 0.5}, 1, 1},
		{"negative cap falls back to default", StallConfig{BaseRTOSec: 0.3, MaxRTOSec: -1}, 0.3, 60},
		{"default base above tiny cap", StallConfig{MaxRTOSec: 0.1}, 0.2, 0.2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.in.defaulted()
			if got.BaseRTOSec != tc.wantBase || got.MaxRTOSec != tc.wantMax {
				t.Fatalf("defaulted() base/max = %g/%g, want %g/%g",
					got.BaseRTOSec, got.MaxRTOSec, tc.wantBase, tc.wantMax)
			}
		})
	}
}

func TestStallForOutageExceedsOutage(t *testing.T) {
	f := func(seed int64) bool {
		d := math.Abs(float64(seed%1000))/100 + 0.01 // 0.01..10.01 s
		st := StallForOutage(mobility.Outage{Start: 5, Duration: d}, StallConfig{})
		// Stall covers the outage and overshoots by at most one RTO.
		return st.Duration >= d && st.Duration <= d+st.FinalRTO+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStallBackoffDoubles(t *testing.T) {
	// 2 s outage with 0.2 s base RTO: retransmissions at 0.2, 0.6,
	// 1.4, 3.0 — the 4th (RTO 1.6) lands past 2 s and succeeds.
	st := StallForOutage(mobility.Outage{Duration: 2}, StallConfig{})
	if st.Retransmissions != 4 {
		t.Fatalf("retransmissions = %d, want 4", st.Retransmissions)
	}
	if math.Abs(st.Duration-3.0) > 1e-9 {
		t.Fatalf("stall = %g, want 3.0", st.Duration)
	}
	if math.Abs(st.FinalRTO-1.6) > 1e-9 {
		t.Fatalf("final RTO = %g, want 1.6", st.FinalRTO)
	}
}

func TestStallRTOCap(t *testing.T) {
	st := StallForOutage(mobility.Outage{Duration: 10}, StallConfig{MaxRTOSec: 1})
	if st.FinalRTO > 1.0 {
		t.Fatalf("RTO %g exceeded cap", st.FinalRTO)
	}
}

func TestStallZeroOutage(t *testing.T) {
	st := StallForOutage(mobility.Outage{Start: 3, Duration: 0}, StallConfig{})
	if st != (Stall{Start: 3}) {
		t.Fatalf("zero outage produced stall %+v", st)
	}
}

func TestReplayMergesOverlaps(t *testing.T) {
	stalls := ReplayStalls([]mobility.Outage{
		{Start: 10, Duration: 0.3},
		{Start: 0.5, Duration: 1}, // overlaps the next, given out of order
		{Start: 0, Duration: 1},
	}, StallConfig{})
	if len(stalls) != 2 {
		t.Fatalf("stalls = %d, want 2 after merging", len(stalls))
	}
	if stalls[0].Start != 0 || stalls[0].Duration < 1.5 {
		t.Fatalf("merged stall %+v should start at 0 and cover the 1.5 s outage", stalls[0])
	}
	// Touching outages (one starts as the other ends) merge too.
	if touch := ReplayStalls([]mobility.Outage{{Start: 0, Duration: 1}, {Start: 1, Duration: 1}}, StallConfig{}); len(touch) != 1 {
		t.Fatalf("touching outages gave %d stalls, want 1", len(touch))
	}
	if ReplayStalls(nil, StallConfig{}) != nil {
		t.Fatal("empty replay should be empty")
	}
}

func TestLongerOutagesLongerStalls(t *testing.T) {
	// Monotonicity: stall time grows with outage duration — the
	// mechanism behind REM's Fig. 9a win (fewer/shorter outages).
	total := func(d float64) float64 {
		var sum float64
		for _, st := range ReplayStalls([]mobility.Outage{{Start: 0, Duration: d}, {Start: 20, Duration: d}, {Start: 40, Duration: d}}, StallConfig{}) {
			sum += st.Duration
		}
		return sum
	}
	if a, b := total(1), total(3); b <= a {
		t.Fatalf("stall time %g for 3 s outages ≤ %g for 1 s", b, a)
	}
}

// linkScript is a deterministic 30 s link: strong signal with a slow
// SNR fade, one handover blip and one 2 s blackout.
func linkScript() (snr, down []float64) {
	n := 300
	snr = make([]float64, n)
	down = make([]float64, n)
	for i := 0; i < n; i++ {
		snr[i] = 22 - 10*math.Abs(float64(i)-150)/150
		switch {
		case i == 80:
			down[i] = 0.4 // handover interruption
		case i >= 150 && i < 170:
			down[i] = 1 // RLF blackout
			snr[i] = math.Inf(-1)
		}
	}
	return snr, down
}

func runScript(t *testing.T, spec Spec, seed int64) (Totals, []Stall) {
	t.Helper()
	snr, down := linkScript()
	rng := sim.NewStreams(seed).StreamBudget(StreamLink, DrawBudget(float64(len(snr))*IntervalSec))
	ue := NewUE(spec, rng)
	for i := range snr {
		ue.Step(snr[i], down[i])
	}
	tot := ue.Finish()
	return tot, ue.Stalls()
}

// TestRateEvolutionGoldens pins each controller/workload pairing's
// end-to-end totals over the fixed link script. These are regression
// goldens: a change here means controller or link-model dynamics
// changed and every downstream goodput report moves with them.
func TestRateEvolutionGoldens(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"gcc-video", Spec{Controller: "gcc", Workload: "video"},
			"n=300 delivered=35.430 goodput=1.181 rate=1.201 down=2.04s stalls=2/3.20s rebuf=2/21.14s web=0"},
		{"bbr-video", Spec{Controller: "bbr", Workload: "video"},
			"n=300 delivered=105.773 goodput=3.526 rate=5.376 down=2.04s stalls=2/3.20s rebuf=17/3.66s web=0"},
		{"gcc-bulk", Spec{Controller: "gcc", Workload: "bulk"},
			"n=300 delivered=35.430 goodput=1.181 rate=1.201 down=2.04s stalls=2/3.20s rebuf=0/0.00s web=0"},
		{"gcc-web", Spec{Controller: "gcc", Workload: "web"},
			"n=300 delivered=11.167 goodput=0.372 rate=1.201 down=2.04s stalls=2/3.20s rebuf=0/0.00s web=20"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tot, _ := runScript(t, tc.spec, 7)
			got := fmt.Sprintf("n=%d delivered=%.3f goodput=%.3f rate=%.3f down=%.2fs stalls=%d/%.2fs rebuf=%d/%.2fs web=%d",
				tot.Intervals, tot.DeliveredMbit, tot.GoodputMbps, tot.MeanRateMbps,
				tot.DownSec, tot.Stalls, tot.StallSec, tot.Rebuffers, tot.RebufferSec, tot.WebCompleted)
			if got != tc.want {
				t.Fatalf("totals drifted:\n got %s\nwant %s", got, tc.want)
			}
		})
	}
}

// TestDrawSequenceIndependentOfLinkState verifies the two-draws-per-
// interval discipline: after the same number of steps, two flows that
// saw completely different link histories have consumed exactly the
// same RNG draws, so the next value out of each stream is identical.
func TestDrawSequenceIndependentOfLinkState(t *testing.T) {
	mk := func() *sim.RNG { return sim.NewStreams(99).StreamBudget(StreamLink, DrawBudget(30)) }
	rngA, rngB := mk(), mk()
	a := NewUE(Spec{}, rngA)
	b := NewUE(Spec{Controller: "bbr", Workload: "web"}, rngB)
	snr, down := linkScript()
	for i := range snr {
		a.Step(snr[i], down[i])
		b.Step(25, 0) // clean link, different controller and workload
	}
	if av, bv := rngA.Float64(), rngB.Float64(); av != bv {
		t.Fatalf("draw counts diverged: next draws %g vs %g", av, bv)
	}
}

// TestStepDeterminism: identical spec + seed + link history must give
// bit-identical totals and stalls.
func TestStepDeterminism(t *testing.T) {
	t1, s1 := runScript(t, Spec{}, 3)
	t2, s2 := runScript(t, Spec{}, 3)
	if t1 != t2 {
		t.Fatalf("totals differ: %+v vs %+v", t1, t2)
	}
	if len(s1) != len(s2) {
		t.Fatalf("stall counts differ: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("stall %d differs: %+v vs %+v", i, s1[i], s2[i])
		}
	}
}

// TestBlackoutStallsFlow: the scripted 2 s blackout must surface as a
// stall that overshoots the outage (RTO semantics) and as rebuffer time
// for the video workload.
func TestBlackoutStallsFlow(t *testing.T) {
	tot, stalls := runScript(t, Spec{}, 7)
	if tot.Stalls < 2 {
		t.Fatalf("stalls = %d, want the handover blip and the blackout", tot.Stalls)
	}
	var blackout *Stall
	for i := range stalls {
		if stalls[i].Duration >= 2 {
			blackout = &stalls[i]
		}
	}
	if blackout == nil {
		t.Fatalf("no stall covers the 2 s blackout: %+v", stalls)
	}
	if blackout.Duration <= 2 || blackout.Retransmissions < 3 {
		t.Fatalf("blackout stall %+v should overshoot 2 s with backed-off retransmissions", *blackout)
	}
	if tot.RebufferSec <= 0 || tot.Rebuffers == 0 {
		t.Fatal("video workload recorded no rebuffering across a 2 s blackout")
	}
}

// TestControllersDiverge: gcc and bbr must actually behave differently
// on the same link (otherwise the controller switch is dead code).
func TestControllersDiverge(t *testing.T) {
	g, _ := runScript(t, Spec{Controller: "gcc", Workload: "bulk"}, 7)
	b, _ := runScript(t, Spec{Controller: "bbr", Workload: "bulk"}, 7)
	if g.MeanRateMbps == b.MeanRateMbps && g.DeliveredMbit == b.DeliveredMbit {
		t.Fatal("gcc and bbr produced identical traces on the same link")
	}
}

func TestControllerNames(t *testing.T) {
	for _, name := range []string{ControllerGCC, ControllerBBR} {
		c := NewController(Spec{Controller: name}.Defaulted())
		if c.Name() != name {
			t.Fatalf("NewController(%q).Name() = %q", name, c.Name())
		}
		if !strings.Contains(name, c.Name()) {
			t.Fatalf("controller name mismatch %q", c.Name())
		}
	}
}

func TestDrawBudgetCoversRun(t *testing.T) {
	// Two logical draws per interval; the budget must leave headroom
	// for the Gaussian's variable underlying word consumption.
	if b := DrawBudget(600); b < 2*6000 {
		t.Fatalf("DrawBudget(600) = %d, want at least %d", b, 2*6000)
	}
}
