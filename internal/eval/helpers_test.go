package eval

import (
	"math"
	"testing"

	"rem/internal/dsp"
	"rem/internal/mobility"
	"rem/internal/transport"
)

func TestPreFailureWindow(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	at := []float64{0, 10, 20, 30, 40}
	failures := []float64{22, 41}
	got := preFailureWindow(vals, at, failures, 5)
	// at=20 is within 5s of failure 22; at=40 within 5s of 41.
	if len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Fatalf("window = %v, want [3 5]", got)
	}
	if out := preFailureWindow(vals, at, nil, 5); out != nil {
		t.Fatal("no failures should select nothing")
	}
	// Mismatched lengths must not panic.
	_ = preFailureWindow(vals, at[:2], failures, 5)
}

func TestAdaptedBLER(t *testing.T) {
	// Constant SNR: the AMC loop holds BLER at or below its 10% target.
	at := make([]float64, 100)
	snr := make([]float64, 100)
	for i := range at {
		at[i] = float64(i) * 0.1
		snr[i] = 10
	}
	failures := []float64{9.9}
	out := adaptedBLER(snr, at, failures, 5, 1.0)
	if len(out) == 0 {
		t.Fatal("no samples selected")
	}
	var steady float64
	for _, b := range out {
		if b > 10+1e-6 {
			t.Fatalf("steady-state BLER %g%% exceeds the 10%% AMC target", b)
		}
		steady = b
	}
	// Falling SNR: later samples must sit above the steady state
	// (adaptation lag).
	for i := range snr {
		snr[i] = 20 - 0.4*float64(i) // −4 dB per second
	}
	out = adaptedBLER(snr, at, failures, 5, 1.0)
	if out[len(out)-1] <= steady {
		t.Fatalf("falling SNR should elevate BLER: %g ≤ %g", out[len(out)-1], steady)
	}
}

func TestSubGrid(t *testing.T) {
	h := dsp.NewGrid(4, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			h.Set(i, j, complex(float64(i), float64(j)))
		}
	}
	s := subGrid(h, 1, 2, 2, 2)
	if s.M != 2 || s.N != 2 {
		t.Fatalf("shape %dx%d", s.M, s.N)
	}
	if s.At(0, 0) != complex(1, 2) || s.At(1, 1) != complex(2, 3) {
		t.Fatalf("content wrong: %v", s.Data)
	}
}

func TestYAt(t *testing.T) {
	s := Series{X: []float64{0, 1, 2}, Y: []float64{10, 20, 30}}
	if got := yAt(s, 1.2); got != 20 {
		t.Fatalf("yAt(1.2) = %g, want nearest 20", got)
	}
	if got := yAt(s, -5); got != 10 {
		t.Fatalf("yAt(-5) = %g", got)
	}
}

func TestGridCorrelation(t *testing.T) {
	a := dsp.NewGrid(2, 2)
	a.Data[0], a.Data[1], a.Data[2], a.Data[3] = 1, 2i, -1, 3
	// Self-correlation is 1; global phase rotation keeps it 1.
	if c := gridCorrelation(a, a); math.Abs(c-1) > 1e-12 {
		t.Fatalf("self correlation %g", c)
	}
	b := dsp.CopyGrid(a)
	for i := range b.Data {
		b.Data[i] *= complex(0, 1)
	}
	if c := gridCorrelation(a, b); math.Abs(c-1) > 1e-12 {
		t.Fatalf("phase-rotated correlation %g, want 1", c)
	}
	// Orthogonal grids correlate to 0.
	z := dsp.NewGrid(2, 2)
	z.Set(0, 1, 1)
	o := dsp.NewGrid(2, 2)
	o.Set(1, 0, 1)
	if c := gridCorrelation(z, o); c != 0 {
		t.Fatalf("orthogonal correlation %g", c)
	}
	if c := gridCorrelation(dsp.NewGrid(2, 2), a); c != 0 {
		t.Fatal("zero grid should correlate 0")
	}
}

func TestLongOutages(t *testing.T) {
	in := []mobility.Outage{{Start: 0, Duration: 0.05}, {Start: 1, Duration: 0.3}, {Start: 2, Duration: 0.19}}
	outs := longOutages(in, 0.2)
	if len(outs) != 1 || outs[0].Duration != 0.3 {
		t.Fatalf("longOutages = %v", outs)
	}
}

func TestThroughputTrace(t *testing.T) {
	ts, mbps := throughputTrace(2, 3, 10, 0.1)
	if len(ts) != len(mbps) || len(ts) < 100 {
		t.Fatalf("trace has %d times and %d rates, want ≥100 matched samples", len(ts), len(mbps))
	}
	at := func(tt float64) float64 {
		for i, x := range ts {
			if math.Abs(x-tt) < 0.0501 {
				return mbps[i]
			}
		}
		t.Fatalf("no sample near %g", tt)
		return 0
	}
	if at(1.0) != fig9RateMbps {
		t.Fatal("pre-stall throughput should be full")
	}
	if at(3.0) != 0 {
		t.Fatal("mid-stall throughput should be zero")
	}
	// 0.6 s into the 1.5 s slow-start ramp: 0.4 of the full rate.
	if post := at(5.6); math.Abs(post-0.4*fig9RateMbps) > 0.1*fig9RateMbps {
		t.Fatalf("ramp throughput = %g, want about %g", post, 0.4*fig9RateMbps)
	}
	if at(9.0) != fig9RateMbps {
		t.Fatal("recovered throughput should be full")
	}
}

func TestStallTotals(t *testing.T) {
	if total, mean := stallTotals(nil); total != 0 || mean != 0 {
		t.Fatalf("empty totals = %g/%g", total, mean)
	}
	total, mean := stallTotals([]transport.Stall{{Duration: 1}, {Duration: 2.5}})
	if total != 3.5 || mean != 1.75 {
		t.Fatalf("totals = %g/%g, want 3.5/1.75", total, mean)
	}
}
