package sim

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// TestPrefetchLeavesStreamUnchanged calls Prefetch at random points
// (random hint sizes, including 0, negative and past the window)
// between the draws of one stream and never on its twin: the draw
// sequences, the cursors and the arena accounting must stay identical,
// and Prefetch must not allocate.
func TestPrefetchLeavesStreamUnchanged(t *testing.T) {
	for _, seed := range crossSeeds {
		for _, budget := range []int{0, 100, 5000} {
			arenaA, arenaB := NewArena(), NewArena()
			a, b := arenaA.Streams(seed).StreamBudget("p", budget), arenaB.Streams(seed).StreamBudget("p", budget)
			hints := rand.New(rand.NewSource(seed))
			var sink uint64
			for i := 0; i < 3000; i++ {
				if hints.Intn(4) == 0 {
					before := *a.src
					sink += a.Prefetch(hints.Intn(1400) - 50)
					after := *a.src
					if unsafe.SliceData(before.state) != unsafe.SliceData(after.state) ||
						before.pos != after.pos || before.tap != after.tap || before.x0 != after.x0 {
						t.Fatalf("seed %d budget %d: Prefetch at draw %d moved the source", seed, budget, i)
					}
				}
				var x, y float64
				if i%3 == 0 {
					x, y = a.Float64(), b.Float64()
				} else {
					x, y = a.Norm(), b.Norm()
				}
				if math.Float64bits(x) != math.Float64bits(y) {
					t.Fatalf("seed %d budget %d: draw %d = %v with prefetch, %v without", seed, budget, i, x, y)
				}
			}
			if sa, sb := arenaA.Stats(), arenaB.Stats(); sa != sb {
				t.Fatalf("seed %d budget %d: stats %+v with prefetch, %+v without", seed, budget, sa, sb)
			}
			if allocs := testing.AllocsPerRun(100, func() { sink += a.Prefetch(50) }); allocs != 0 {
				t.Fatalf("Prefetch allocates %v per call", allocs)
			}
			_ = sink
		}
	}
	// No-ops: a stdlib-backed stream and an arena stream that has not
	// drawn yet (direct or window) load nothing.
	if NewRNG(1).Prefetch(100) != 0 {
		t.Fatal("stdlib stream prefetched")
	}
	arena := NewArena()
	for _, budget := range []int{0, 100} {
		g := arena.Streams(1).StreamBudget("cold", budget)
		if g.Prefetch(100) != 0 || g.src.state != nil {
			t.Fatalf("budget %d: unseeded stream prefetched", budget)
		}
	}
	if st := arena.Stats(); st.Seeded != 0 || st.LiveBytes != 0 {
		t.Fatalf("prefetch seeded a stream: %+v", st)
	}
}

// TestPrefetchTouchesEveryLine checks the touch pattern's coverage:
// for random cursors, hint sizes and window alignments against 64-byte
// lines, the cache line holding any slot among the next n a cursor
// reads contains a touched word. The window is zero except that line,
// so a non-zero fold means the line was loaded.
func TestPrefetchTouchesEveryLine(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	w := make([]uint64, alfgLen)
	for trial := 0; trial < 20_000; trial++ {
		p, n, align := r.Intn(alfgLen), 1+r.Intn(alfgLen), r.Intn(cacheLineWords)
		k := (p - 1 - r.Intn(n) + alfgLen) % alfgLen // one of the next n slots
		line := (k + align) / cacheLineWords
		clear(w)
		for i := range w {
			if (i+align)/cacheLineWords == line {
				w[i] = 1
			}
		}
		if touchBehind(w, p, n) == 0 {
			t.Fatalf("p %d n %d align %d: line of slot %d not touched", p, n, align, k)
		}
	}
}

// TestBoxedRNGSize pins the per-stream heap object: the source pointer
// RNG carries for Prefetch must not push a boxedRNG out of the 112-byte
// size class (a fleet holds hundreds of thousands of them).
func TestBoxedRNGSize(t *testing.T) {
	if sz := unsafe.Sizeof(boxedRNG{}); sz > 112 {
		t.Fatalf("boxedRNG is %d bytes, want <= 112", sz)
	}
}
