package fault

import (
	"encoding/json"
	"reflect"
	"testing"

	"rem/internal/sim"
)

func TestPlanEmpty(t *testing.T) {
	var nilPlan *Plan
	if !nilPlan.Empty() {
		t.Error("nil plan should be empty")
	}
	if !(&Plan{Name: "x"}).Empty() {
		t.Error("plan with only a name should be empty")
	}
	if (&Plan{Bursts: []Burst{{End: 1, LossBad: 1}}}).Empty() {
		t.Error("plan with a burst should not be empty")
	}
}

func TestValidateRejectsBadPlans(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
	}{
		{"inverted window", Plan{Outages: []CellOutage{{Cell: 0, Start: 10, End: 5}}}},
		{"negative start", Plan{CSI: []CSIFault{{Start: -1, End: 5, Mode: "stale"}}}},
		{"bad cell", Plan{Outages: []CellOutage{{Cell: -2, Start: 0, End: 5}}}},
		{"bad kind", Plan{Signaling: []SignalingFault{{Start: 0, End: 5, Kind: "bogus"}}}},
		{"prob > 1", Plan{Signaling: []SignalingFault{{Start: 0, End: 5, DropProb: 1.5}}}},
		{"negative delay", Plan{Signaling: []SignalingFault{{Start: 0, End: 5, DelaySec: -0.1}}}},
		{"bad csi mode", Plan{CSI: []CSIFault{{Start: 0, End: 5, Mode: "frozen"}}}},
		{"burst prob", Plan{Bursts: []Burst{{Start: 0, End: 5, PGoodToBad: 2}}}},
	}
	for _, tc := range cases {
		if err := tc.plan.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid plan", tc.name)
		}
	}
	if err := (*Plan)(nil).Validate(); err != nil {
		t.Errorf("nil plan should validate: %v", err)
	}
}

func TestParseRoundTrip(t *testing.T) {
	p := &Plan{
		Name:      "rt",
		Outages:   []CellOutage{{Cell: AllCells, Start: 10, End: 14}},
		Signaling: []SignalingFault{{Start: 0, End: 30, Kind: "command", DropProb: 0.2, DelaySec: 0.05}},
		CSI:       []CSIFault{{Start: 5, End: 9, Mode: "zero"}},
		Bursts:    []Burst{{Start: 1, End: 3, PGoodToBad: 0.2, PBadToGood: 0.3, LossBad: 0.9}},
	}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Errorf("round trip mismatch:\n  want %+v\n  got  %+v", p, got)
	}
	if _, err := Parse([]byte(`{"bursts": [{"start_sec": 5, "end_sec": 1}]}`)); err == nil {
		t.Error("Parse accepted an invalid plan")
	}
}

func TestInjectorNilSafety(t *testing.T) {
	var in *Injector
	if in.CellDown(3, 1) {
		t.Error("nil injector reported a cell down")
	}
	if in.CSIMode(1) != CSIHealthy {
		t.Error("nil injector degraded CSI")
	}
	if v := in.Signaling(1, MsgReport); v.Drop || v.Corrupt || v.ExtraDelay != 0 {
		t.Errorf("nil injector imposed a verdict: %+v", v)
	}
	bits := []byte{0, 1, 0}
	if got := in.CorruptBits(bits); !reflect.DeepEqual(got, []byte{0, 1, 0}) {
		t.Errorf("nil injector flipped bits: %v", got)
	}
	if NewInjector(nil, sim.NewRNG(1)) != nil {
		t.Error("NewInjector should return nil for a nil plan")
	}
	if NewInjector(&Plan{}, sim.NewRNG(1)) != nil {
		t.Error("NewInjector should return nil for an empty plan")
	}
}

func TestCellDownWindows(t *testing.T) {
	in := NewInjector(&Plan{Outages: []CellOutage{
		{Cell: 4, Start: 10, End: 20},
		{Cell: AllCells, Start: 30, End: 35},
	}}, sim.NewRNG(1))
	cases := []struct {
		cell int
		t    float64
		want bool
	}{
		{4, 9.99, false}, {4, 10, true}, {4, 19.99, true}, {4, 20, false},
		{5, 15, false},                               // other cell unaffected
		{4, 32, true}, {5, 32, true}, {99, 32, true}, // blackout hits everyone
	}
	for _, tc := range cases {
		if got := in.CellDown(tc.cell, tc.t); got != tc.want {
			t.Errorf("CellDown(%d, %g) = %v, want %v", tc.cell, tc.t, got, tc.want)
		}
	}
}

func TestCSIModeWindows(t *testing.T) {
	in := NewInjector(&Plan{CSI: []CSIFault{
		{Start: 5, End: 10, Mode: "stale"},
		{Start: 10, End: 15, Mode: "zero"},
	}}, sim.NewRNG(1))
	for _, tc := range []struct {
		t    float64
		want CSIMode
	}{{0, CSIHealthy}, {5, CSIStale}, {9.99, CSIStale}, {10, CSIZero}, {15, CSIHealthy}} {
		if got := in.CSIMode(tc.t); got != tc.want {
			t.Errorf("CSIMode(%g) = %v, want %v", tc.t, got, tc.want)
		}
	}
}

func TestSignalingDeterministicSequence(t *testing.T) {
	plan := &Plan{
		Signaling: []SignalingFault{{Start: 0, End: 100, DropProb: 0.3, CorruptProb: 0.2, DelaySec: 0.05}},
		Bursts:    []Burst{{Start: 40, End: 60, PGoodToBad: 0.3, PBadToGood: 0.3, LossBad: 0.9}},
	}
	run := func() []Verdict {
		in := NewInjector(plan, sim.NewRNG(7))
		var out []Verdict
		for i := 0; i < 400; i++ {
			out = append(out, in.Signaling(float64(i)*0.25, MsgKind(i%2)))
		}
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical seeds produced different verdict sequences")
	}
	drops := 0
	for _, v := range a {
		if v.Drop && v.Corrupt {
			t.Fatal("a verdict both dropped and corrupted a message")
		}
		if v.Drop {
			drops++
		}
	}
	if drops == 0 {
		t.Error("expected some drops from a 0.3 drop probability over 400 attempts")
	}
}

func TestBurstLossClusters(t *testing.T) {
	// Inside the burst window losses must cluster: with LossBad=1,
	// LossGood=0 every loss is a bad-state visit, and the mean run
	// length must exceed 1 (PBadToGood = 0.25 → mean run 4).
	plan := &Plan{Bursts: []Burst{{
		Start: 0, End: 1e9, PGoodToBad: 0.1, PBadToGood: 0.25, LossBad: 1,
	}}}
	in := NewInjector(plan, sim.NewRNG(3))
	runs, cur, losses := 0, 0, 0
	var runSum int
	for i := 0; i < 20000; i++ {
		v := in.Signaling(float64(i), MsgReport)
		if v.Drop {
			losses++
			cur++
		} else if cur > 0 {
			runs++
			runSum += cur
			cur = 0
		}
	}
	if losses == 0 || runs == 0 {
		t.Fatalf("burst chain produced no losses (losses=%d runs=%d)", losses, runs)
	}
	mean := float64(runSum) / float64(runs)
	if mean < 2 {
		t.Errorf("loss runs do not cluster: mean run length %.2f, want >= 2", mean)
	}
	if in.Dropped != losses {
		t.Errorf("Dropped counter %d != observed losses %d", in.Dropped, losses)
	}
}

func TestBurstChainResetsPerWindow(t *testing.T) {
	// Two disjoint windows: the chain state must reset to good when
	// entering the second window even if the first ended bad.
	plan := &Plan{Bursts: []Burst{
		{Start: 0, End: 10, PGoodToBad: 1, PBadToGood: 0, LossBad: 1},
		{Start: 20, End: 30, PGoodToBad: 0, PBadToGood: 0, LossBad: 1, LossGood: 0},
	}}
	in := NewInjector(plan, sim.NewRNG(5))
	if !in.Signaling(5, MsgReport).Drop {
		t.Fatal("first window should be bad (PGoodToBad = 1) and lossy")
	}
	// Second window: chain re-enters good and can never leave
	// (PGoodToBad = 0), so LossGood = 0 means no drops.
	for ti := 20.0; ti < 30; ti++ {
		if in.Signaling(ti, MsgReport).Drop {
			t.Fatal("second window should have reset the chain to good")
		}
	}
}

func TestCorruptBitsFlipsWithinConvention(t *testing.T) {
	in := NewInjector(&Plan{Signaling: []SignalingFault{{Start: 0, End: 1, CorruptProb: 1}}}, sim.NewRNG(9))
	orig := make([]byte, 64) // all zero bits
	got := in.CorruptBits(append([]byte(nil), orig...))
	flips := 0
	for i, b := range got {
		if b != orig[i] {
			flips++
		}
		if b != 0 && b != 1 {
			t.Fatalf("bit %d = %d violates the one-bit-per-byte convention", i, b)
		}
	}
	if flips < 1 || flips > 3 {
		t.Errorf("CorruptBits flipped %d bits, want 1-3", flips)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := GenSpec{
		DurationSec:    600,
		Cells:          []int{1, 2, 3},
		OutageEverySec: 120, OutageLenSec: [2]float64{2, 6},
		BurstEverySec: 90, BurstLenSec: [2]float64{10, 30},
		PGoodToBad: 0.2, PBadToGood: 0.3, LossBad: 0.9,
		CSIEverySec: 150, CSILenSec: [2]float64{20, 40}, CSIZeroFraction: 0.5,
	}
	a, err := Generate(sim.NewStreams(11), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(sim.NewStreams(11), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed generated different plans")
	}
	c, err := Generate(sim.NewStreams(12), spec)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds generated identical plans")
	}
	if len(a.Outages) == 0 || len(a.Bursts) == 0 || len(a.CSI) == 0 {
		t.Errorf("generated plan missing fault classes: %+v", a)
	}
	if err := a.Validate(); err != nil {
		t.Errorf("generated plan fails validation: %v", err)
	}
	if _, err := Generate(sim.NewStreams(1), GenSpec{}); err == nil {
		t.Error("Generate accepted a zero duration")
	}
}

func TestGenerateDoesNotPerturbOtherStreams(t *testing.T) {
	// The "fault.plan" stream is private: generating a plan must not
	// change any other stream's draws.
	s1 := sim.NewStreams(42)
	want := s1.Stream("link").Float64()
	s2 := sim.NewStreams(42)
	if _, err := Generate(s2, GenSpec{DurationSec: 600, BurstEverySec: 60, BurstLenSec: [2]float64{5, 10}, LossBad: 1}); err != nil {
		t.Fatal(err)
	}
	if got := s2.Stream("link").Float64(); got != want {
		t.Errorf("Generate perturbed the link stream: %g != %g", got, want)
	}
}
