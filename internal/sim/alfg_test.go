package sim

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// crossSeeds are the seeds every cross-check runs: positive, zero
// (which the seeding loop remaps to 89482311), negative, a seed that
// is ≡ 0 mod 2^31−1 (the other remap branch), and a wide 64-bit one.
var crossSeeds = []int64{1, 0, -7, 1<<31 - 1, 0x7a3b_9f21_0c44_5e17}

// TestALFGRawWordsMatchStdlib pins the raw word stream: Uint64 and
// Int63 of a standalone alfgSource against rand.NewSource over every
// cross seed, including a 10^6-draw horizon on the first seed (the
// window wraps every 607 draws, so a million draws crosses it ~1600
// times).
func TestALFGRawWordsMatchStdlib(t *testing.T) {
	for _, seed := range crossSeeds {
		n := 10_000
		if seed == crossSeeds[0] {
			n = 1_000_000
		}
		ref := rand.NewSource(seed).(rand.Source64)
		var src alfgSource
		src.init(seed, nil, 0)
		for i := 0; i < n; i++ {
			if got, want := src.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d: Uint64 draw %d = %#x, stdlib %#x", seed, i, got, want)
			}
		}
		// Int63 masks the same words.
		ref = rand.NewSource(seed).(rand.Source64)
		var src2 alfgSource
		src2.init(seed, nil, 0)
		for i := 0; i < 1000; i++ {
			if got, want := src2.Int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d: Int63 draw %d = %d, stdlib %d", seed, i, got, want)
			}
		}
	}
}

// drawMix exercises every RNG distribution method in a fixed rotation
// and returns a value per step, so two generators can be compared
// across the full method surface (Float64, Norm, Exp, Intn, Perm,
// ComplexNorm, Rayleigh, Uniform, Gauss, Bool).
func drawMix(g *RNG, steps int, sink func(vs ...float64)) {
	for i := 0; i < steps; i++ {
		switch i % 10 {
		case 0:
			sink(g.Float64())
		case 1:
			sink(g.Norm())
		case 2:
			sink(g.Exp(3.5))
		case 3:
			sink(float64(g.Intn(1000 + i%7)))
		case 4:
			p := g.Perm(8)
			for _, v := range p {
				sink(float64(v))
			}
		case 5:
			c := g.ComplexNorm(2.0)
			sink(real(c), imag(c))
		case 6:
			sink(g.Rayleigh(1.7))
		case 7:
			sink(g.Uniform(-4, 9))
		case 8:
			sink(g.Gauss(1, 2.5))
		case 9:
			b := 0.0
			if g.Bool(0.3) {
				b = 1
			}
			sink(b)
		}
	}
}

// compareRNGs drives two RNGs through the identical method rotation
// and requires bitwise-equal outputs.
func compareRNGs(t *testing.T, name string, a, b *RNG, steps int) {
	t.Helper()
	var av, bv []float64
	drawMix(a, steps, func(vs ...float64) { av = append(av, vs...) })
	drawMix(b, steps, func(vs ...float64) { bv = append(bv, vs...) })
	if len(av) != len(bv) {
		t.Fatalf("%s: draw count mismatch %d vs %d", name, len(av), len(bv))
	}
	for i := range av {
		if math.Float64bits(av[i]) != math.Float64bits(bv[i]) {
			t.Fatalf("%s: value %d = %v, want %v", name, i, av[i], bv[i])
		}
	}
}

// TestArenaStreamMatchesEagerStream is the distribution-level golden
// cross-check: for every cross seed, an arena-backed lazily seeded
// stream must match the eager stdlib stream of the same (seed, name)
// over every RNG method — unbudgeted (window), large-budgeted (window)
// and small-budgeted (direct mode, which spills to a window at draw
// 607, inside the comparison horizon: the lazy-seed and spill
// boundaries are exactly where a porting bug would strike).
func TestArenaStreamMatchesEagerStream(t *testing.T) {
	const steps = 4000 // ~8k draws: far past the spill and several window wraps
	for _, seed := range crossSeeds {
		eager := NewStreams(seed)
		for _, tc := range []struct {
			name   string
			budget int
		}{
			{"window", 0},
			{"window-budget", 5000}, // padded ≥ alfgLen: window representation
			{"direct-max", 520},     // largest budgets still run direct
			{"direct", 40},
			{"direct-one", 1}, // minimum budget
		} {
			arena := NewArena()
			as := arena.Streams(seed)
			compareRNGs(t, tc.name,
				as.StreamBudget("cross."+tc.name, tc.budget),
				eager.Stream("cross."+tc.name), steps)
			if directBudget(tc.budget) {
				if sp := arena.Stats().Spills; sp != 1 {
					t.Fatalf("%s seed %d: expected exactly one spill, got %d", tc.name, seed, sp)
				}
			}
		}
	}
}

// TestArenaStreamLazySeedBoundary interleaves two streams so one seeds
// long after the other has drawn thousands of values: seeding time
// must not leak between streams.
func TestArenaStreamLazySeedBoundary(t *testing.T) {
	arena := NewArena()
	as := arena.Streams(99)
	eager := NewStreams(99)
	a, b := as.Stream("a"), as.StreamBudget("b", 64)
	ea, eb := eager.Stream("a"), eager.Stream("b")
	for i := 0; i < 5000; i++ {
		if got, want := a.Float64(), ea.Float64(); got != want {
			t.Fatalf("stream a draw %d: %v != %v", i, got, want)
		}
	}
	if arena.Stats().Seeded != 1 {
		t.Fatalf("stream b seeded before first draw: %+v", arena.Stats())
	}
	for i := 0; i < 700; i++ { // crosses b's spill at raw draw 607
		if got, want := b.Norm(), eb.Norm(); got != want {
			t.Fatalf("stream b draw %d: %v != %v", i, got, want)
		}
	}
}

// TestALFGSeedReset pins Seed(): restarting a source from a new seed
// matches a fresh stdlib source, for a window source and for a direct
// source mid-sequence (past the 273-draw recursion step) and after it
// spilled to a window.
func TestALFGSeedReset(t *testing.T) {
	for _, tc := range []struct{ budget, before int }{{0, 100}, {100, 300}, {100, 650}} {
		var src alfgSource
		src.init(5, nil, tc.budget)
		for i := 0; i < tc.before; i++ {
			src.Uint64()
		}
		src.Seed(77)
		ref := rand.NewSource(77).(rand.Source64)
		for i := 0; i < 700; i++ {
			if got, want := src.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("budget %d, Seed after %d draws: draw %d: %#x != %#x", tc.budget, tc.before, i, got, want)
			}
		}
	}
}

// TestArenaAccounting checks the stats the rembench per-UE stat is
// built on: streams/seeded/direct/vec counts and live bytes. A direct
// stream that has drawn holds no arena words, so only the window counts.
func TestArenaAccounting(t *testing.T) {
	arena := NewArena()
	as := arena.Streams(3)
	cold := as.Stream("cold")
	_ = cold
	direct := as.StreamBudget("direct", 100)
	vec := as.Stream("vec")
	direct.Float64()
	vec.Float64()
	st := arena.Stats()
	if st.Streams != 3 || st.Seeded != 2 || st.Tapes != 1 || st.Vecs != 1 || st.Spills != 0 {
		t.Fatalf("stats = %+v", st)
	}
	wantLive := int64(alfgLen) * 8
	if st.LiveBytes != wantLive {
		t.Fatalf("LiveBytes = %d, want %d", st.LiveBytes, wantLive)
	}
	if st.ReservedBytes < st.LiveBytes {
		t.Fatalf("ReservedBytes %d < LiveBytes %d", st.ReservedBytes, st.LiveBytes)
	}
}

// TestArenaConcurrentDerivation is the race-coverage satellite: many
// goroutines deriving, lazily seeding, and spilling streams from one
// shared arena, under -race in CI. Values must still match the eager
// factory per stream.
func TestArenaConcurrentDerivation(t *testing.T) {
	arena := NewArena()
	as := arena.Streams(41)
	eager := NewStreams(41)
	const workers = 16
	const streamsPer = 8
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for s := 0; s < streamsPer; s++ {
				name := "race." + string(rune('a'+w)) + "." + string(rune('a'+s))
				g := as.StreamBudget(name, 20) // direct; spills at draw 607
				e := eager.Stream(name)
				for i := 0; i < 700; i++ {
					if got, want := g.Float64(), e.Float64(); got != want {
						errc <- fmt.Errorf("worker %d stream %q draw %d: %v != %v", w, name, i, got, want)
						return
					}
				}
			}
			errc <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil {
			t.Error(err)
		}
	}
	st := arena.Stats()
	if st.Streams != workers*streamsPer || st.Seeded != st.Streams {
		t.Fatalf("stats = %+v", st)
	}
}

// TestALFGJumpTable pins every jump-table entry against the serial
// Schrage chain of the stdlib's seeding LCG.
func TestALFGJumpTable(t *testing.T) {
	alfgInit()
	x := int32(1)
	for s := 1; s < alfgSeedSkip; s++ {
		x = alfgSeedrand(x)
	}
	for i := range alfgPow {
		for c, p := range alfgPow[i] {
			x = alfgSeedrand(x)
			if p != uint64(x) {
				t.Fatalf("alfgPow[%d][%d] = %d, Schrage chain %d", i, c, p, x)
			}
		}
	}
}

// TestALFGMulMod pins the Mersenne-prime reduction against the
// stdlib's Schrage step at the edges of its decomposition (q = 44488)
// and of the modulus, and on random inputs.
func TestALFGMulMod(t *testing.T) {
	xs := []int32{1, 2, alfgSeedQ - 1, alfgSeedQ, alfgSeedQ + 1, alfgSeedM - 2, alfgSeedM - 1}
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 100_000; i++ {
		xs = append(xs, 1+r.Int31n(alfgSeedM-1))
	}
	for _, x := range xs {
		if got, want := alfgMulMod(alfgSeedA, uint64(x)), uint64(alfgSeedrand(x)); got != want {
			t.Fatalf("alfgMulMod(48271, %d) = %d, Schrage %d", x, got, want)
		}
	}
}

// TestArenaDirectStreamBoundaries runs every draw budget up to 606 on
// every cross seed against rand.NewSource over 1,300 raw draws: that
// crosses direct mode's recursion steps at draws 273 and 546, the
// spill at draw 607 and the direct/window budget crossover.
func TestArenaDirectStreamBoundaries(t *testing.T) {
	for _, seed := range crossSeeds {
		arena := NewArena()
		as := arena.Streams(seed)
		direct := 0
		for budget := 1; budget < alfgLen; budget++ {
			g := as.StreamBudget("direct", budget)
			ref := rand.New(rand.NewSource(seed ^ int64(fnv64a("direct"))))
			for i := 0; i < 1300; i++ {
				if got, want := g.r.Uint64(), ref.Uint64(); got != want {
					t.Fatalf("seed %d budget %d: draw %d = %#x, stdlib %#x", seed, budget, i, got, want)
				}
			}
			if directBudget(budget) {
				direct++
			}
		}
		if st := arena.Stats(); st.Spills != direct || st.Vecs != alfgLen-1 {
			t.Fatalf("seed %d: %d direct budgets, stats %+v", seed, direct, st)
		}
	}
}

// TestFNVInlineMatchesStdlib pins the inlined FNV-1a fold against
// hash/fnv for representative stream names; a drift here would silently
// re-seed every stream in the repository.
func TestFNVInlineMatchesStdlib(t *testing.T) {
	names := []string{"", "a", "ran.fading", "ran.shadow.bs.17",
		"mobility.meas", "replica.12345", "fig12.etu.0042", "fault.injector"}
	for _, n := range names {
		h := fnv.New64a()
		h.Write([]byte(n))
		if got, want := fnv64a(n), h.Sum64(); got != want {
			t.Fatalf("fnv64a(%q) = %#x, stdlib %#x", n, got, want)
		}
	}
}

// TestStreamDerivationZeroAlloc pins the satellite fix: deriving a
// stream name must not allocate a hasher (the RNG box itself and the
// stdlib source are counted and expected).
func TestStreamDerivationZeroAlloc(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		_ = fnv64a("ran.shadow.cell.123")
	})
	if allocs != 0 {
		t.Fatalf("fnv64a allocates %v per run, want 0", allocs)
	}
}

// BenchmarkALFGDirectStream is the lifetime of a direct stream at the
// shadowing budget of a 2-s fleet run (200 ticks + 6): derive, then
// draw 206 words.
func BenchmarkALFGDirectStream(b *testing.B) {
	var src alfgSource
	for i := 0; i < b.N; i++ {
		src.init(int64(i), nil, 206)
		for k := 0; k < 206; k++ {
			src.Uint64()
		}
	}
}

// BenchmarkALFGWindowFirstDraw is a window stream's first draw:
// allocate and seed 607 words, then draw one.
func BenchmarkALFGWindowFirstDraw(b *testing.B) {
	var src alfgSource
	for i := 0; i < b.N; i++ {
		src.init(int64(i), nil, 0)
		src.Uint64()
	}
}

func BenchmarkALFGUint64(b *testing.B) {
	var src alfgSource
	src.init(1, nil, 0)
	src.Uint64()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Uint64()
	}
}
