package fleet

import (
	"context"
	"testing"

	"rem/internal/trace"
)

// BenchmarkEpochLongRun times one steady-state StepEpoch of a 1,000-UE
// fleet on a 30-s spec: the per-tick stepping kernel at the shape of
// long runs. The duration is what matters — a 30-s run budgets each
// shadowing process past 607 draws, so those streams hold 607-word
// windows (a UE's few dozen of them do not fit in cache), where a 2-s
// spec such as rembench's fleet_1k_epoch keeps them in direct mode.
// Warm-up epochs seed every window before timing starts; a fleet that
// finishes is rebuilt off the clock.
func BenchmarkEpochLongRun(b *testing.B) {
	const warmup = 3
	ctx := context.Background()
	spec := Spec{
		UEs: 1000, Dataset: trace.BeijingShanghai, Mode: trace.REM,
		DurationSec: 30, Seed: 1,
	}
	build := func() *Engine {
		eng, err := NewEngine(ctx, spec, Options{})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < warmup; i++ {
			if _, err := eng.StepEpoch(ctx); err != nil {
				b.Fatal(err)
			}
		}
		return eng
	}
	eng := build()
	if st := eng.RNGStats(); st.Vecs < 20*spec.UEs {
		b.Fatalf("want shadowing windows, RNG stats %+v", st)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done, err := eng.StepEpoch(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if done {
			b.StopTimer()
			eng = build()
			b.StartTimer()
		}
	}
}
