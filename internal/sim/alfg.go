package sim

import (
	"fmt"
	"math/rand"
	"sync"
)

// This file reimplements the math/rand additive lagged-Fibonacci
// generator (Mitchell & Reeds; rand.NewSource's rngSource) bit-exactly,
// so that generator state can live in caller-managed memory — a
// contiguous per-fleet arena — instead of one heap-scattered ~4.9 KB
// object per stream, and can be seeded lazily on first draw. The Go 1
// compatibility promise pins rand.NewSource's sequence for any seed,
// which makes bit-exactness a testable property: alfg_test.go
// cross-checks raw word sequences and every RNG distribution against
// the stdlib over multiple seeds and 10^6-draw horizons.
//
// Seeding. rngSource.Seed fills its 607-word window from the Lehmer
// LCG L_s = 48271^s·x0 mod (2^31−1): word i is L_{21+3i}<<40 ^
// L_{22+3i}<<20 ^ L_{23+3i} ^ cooked[i]. The stdlib walks that chain
// serially, 1,841 dependent Schrage steps. Here a table of the powers
// 48271^(21+j) turns every L_s into one independent multiply and a
// Mersenne-prime reduction — the same integers, so the same words —
// and any single word costs three multiplies.
//
// Two representations, chosen per stream from its draw budget:
//
//   - direct: for streams created with a small draw budget (for
//     example tick-driven shadowing, which draws once per tick of a
//     run of known duration). Draw k < 607 of a fresh generator adds
//     the feed slot (333−k) mod 607, which no earlier draw has
//     rewritten, to the tap slot 606−k, which still holds its seeded
//     word for k < 273 and holds output k−273 after. So output k is
//     word(333−k) + word(606−k) for k < 273, and up to k = 606 it is
//     word((940−k) mod 607) + output(k−273): a pure function of at
//     most four seeded words. A direct stream stores only x0 and a
//     draw cursor and computes each output from the jump table: no
//     arena words, no seeding loop.
//   - window: the classic 607-word rolling window, for unbounded or
//     large-budget streams. The window lives in the arena (or its own
//     allocation for standalone sources) and is seeded on first draw;
//     a stream that never draws allocates nothing.
//
// A direct stream that reaches draw 607 spills transparently: the
// source seeds a full window, replays the 607 consumed draws, and
// continues — slower for that one stream, never wrong. Budgets are
// therefore performance hints, not correctness contracts.
const (
	alfgLen  = 607
	alfgTap  = 273
	alfgMask = 1<<63 - 1

	// Seeding LCG (Lehmer, Schrage decomposition), exactly as in
	// math/rand/rng.go.
	alfgSeedA = 48271
	alfgSeedM = 1<<31 - 1
	alfgSeedQ = 44488
	alfgSeedR = 3399

	// alfgSeedSkip is the LCG step that yields window word 0's first
	// part; the 20 steps before it are discarded.
	alfgSeedSkip = 21

	// budgetSlack pads a draw budget for the stdlib distributions that
	// consume a variable number of raw words (the ziggurat normal and
	// exponential reject ~2–3% of candidates): entries = budget +
	// budget/8 + 16. A stream whose padded budget is under alfgLen
	// runs in direct mode.
	budgetSlackShift = 3
	budgetSlackMin   = 16
)

// alfgCooked is rand.NewSource's seeding constant vector — the
// generator state the stdlib "cooked" by rolling 7.8·10^12 steps past
// seed 1, XOR-mixed into every freshly seeded vector. Rather than
// embedding the 607-literal table, alfgInit recovers it from the
// stdlib itself at first use: the recurrence x_k = v[feed_k]+v[tap_k]
// is linear mod 2^64, so 607 observed outputs of rand.NewSource(1)
// forward-substitute back into the fresh seed-1 vector, and stripping
// the (reimplemented) seeding LCG's contribution leaves the cooked
// words. This keeps the port honest: if the recovered table or the
// seeding arithmetic were wrong in any bit, the startup self-check and
// the golden cross-check tests would fail immediately.
//
// alfgPow is the jump table: alfgPow[i][c] = 48271^(21+3i+c) mod
// (2^31−1), the multipliers of window word i, built from alfgSeedrand,
// which stays the reference arithmetic.
var (
	alfgCooked   [alfgLen]uint64
	alfgPow      [alfgLen][3]uint64
	alfgInitOnce sync.Once
)

func alfgSeedrand(x int32) int32 {
	hi := x / alfgSeedQ
	lo := x % alfgSeedQ
	x = alfgSeedA*lo - alfgSeedR*hi
	if x < 0 {
		x += alfgSeedM
	}
	return x
}

// alfgMulMod returns a·b mod (2^31−1) for a, b < 2^31: the product is
// under 2^62, and 2^31 ≡ 1 folds its high bits onto its low bits.
func alfgMulMod(a, b uint64) uint64 {
	p := a * b
	r := p&alfgSeedM + p>>31
	if r >= alfgSeedM {
		r -= alfgSeedM
	}
	return r
}

// alfgX0 reduces a seed to the LCG's starting state exactly as
// rngSource.Seed does; the result is under 2^31−1.
func alfgX0(seed int64) uint32 {
	s := seed % alfgSeedM
	if s < 0 {
		s += alfgSeedM
	}
	if s == 0 {
		s = 89482311
	}
	return uint32(s)
}

// alfgWord returns word i of the window seeded from x0.
func alfgWord(x0 uint32, i int32) uint64 {
	p, x := &alfgPow[i], uint64(x0)
	return alfgMulMod(p[0], x)<<40 ^ alfgMulMod(p[1], x)<<20 ^ alfgMulMod(p[2], x) ^ alfgCooked[i]
}

// alfgDirect returns output k < alfgLen of a freshly seeded generator
// (see direct mode in the file comment).
func alfgDirect(x0 uint32, k int32) uint64 {
	var x uint64
	for ; k >= alfgTap; k -= alfgTap {
		f := alfgLen - alfgTap - 1 - k
		if f < 0 {
			f += alfgLen
		}
		x += alfgWord(x0, f)
	}
	return x + alfgWord(x0, alfgLen-alfgTap-1-k) + alfgWord(x0, alfgLen-1-k)
}

// alfgSeedVec seeds a 607-word window from x0 exactly as
// rngSource.Seed does, via the jump table, returning the initial
// tap/feed phases. It assumes alfgInit has run: alfgSource.init runs
// it, and the recovery self-check calls this from inside it.
func alfgSeedVec(vec []uint64, x0 uint32) (tap, feed int32) {
	// alfgWord, inlined by hand: it is too large for the compiler to
	// inline, and the call costs a third of the window's seeding time.
	vec = vec[:alfgLen]
	x := uint64(x0)
	for i := range alfgPow {
		p := &alfgPow[i]
		vec[i] = alfgMulMod(p[0], x)<<40 ^ alfgMulMod(p[1], x)<<20 ^ alfgMulMod(p[2], x) ^ alfgCooked[i]
	}
	return 0, alfgLen - alfgTap
}

func alfgInit() { alfgInitOnce.Do(alfgRecoverCooked) }

func alfgRecoverCooked() {
	x := int32(1)
	for s := 1; s < alfgSeedSkip+3*alfgLen; s++ {
		x = alfgSeedrand(x)
		if j := s - alfgSeedSkip; j >= 0 {
			alfgPow[j/3][j%3] = uint64(x)
		}
	}
	src := rand.NewSource(1).(rand.Source64)
	var outs [alfgLen]uint64
	for i := range outs {
		outs[i] = src.Uint64()
	}
	// Unwind the first 607 draws back to the fresh seed-1 vector v.
	// Draw k reads slots feed_k=(333-k) mod 607 and tap_k=(606-k) mod
	// 607 and overwrites feed_k with the output. The write cursor
	// reaches the tap window after exactly 273 draws, so draws 0..272
	// pair two untouched slots, while from draw 273 on the tap slot
	// already holds the output of draw k-273 — all linear in v.
	var v [alfgLen]uint64
	for k := 273; k <= 606; k++ {
		v[(940-k)%alfgLen] = outs[k] - outs[k-273]
	}
	for k := 0; k < 273; k++ {
		v[333-k] = outs[k] - v[606-k]
	}
	// v[i] = lcg_i XOR cooked[i]; strip the seed-1 LCG part, which is
	// alfgWord's value while alfgCooked[i] is still zero.
	for i := range v {
		alfgCooked[i] = v[i] ^ alfgWord(1, int32(i))
	}
	// Self-check on an unrelated seed: any recovery or porting error
	// surfaces here at startup rather than as silent sequence drift.
	// 700 draws crosses the point (draw 273) where the recurrence first
	// consumes a slot recovered by back-substitution through a rewrite,
	// and checks direct mode over its whole range.
	var check [alfgLen]uint64
	x0 := alfgX0(0x5eed5eed)
	tap, feed := alfgSeedVec(check[:], x0)
	ref := rand.NewSource(0x5eed5eed).(rand.Source64)
	for i := 0; i < 700; i++ {
		tap--
		if tap < 0 {
			tap += alfgLen
		}
		feed--
		if feed < 0 {
			feed += alfgLen
		}
		x := check[feed] + check[tap]
		check[feed] = x
		if x != ref.Uint64() || i < alfgLen && x != alfgDirect(x0, int32(i)) {
			panic(fmt.Sprintf("sim: alfg cooked-table recovery diverged from math/rand at draw %d", i))
		}
	}
}

// alfgSource is a rand.Source64 whose state is either a direct-mode
// draw cursor or a lazily seeded arena-resident window. It is
// single-goroutine, like every generator. The zero value is not
// usable; initialize with init. x0 is held in 32 bits so a boxedRNG,
// which also carries the source pointer RNG.Prefetch reads, stays in
// the 112-byte size class (TestBoxedRNGSize).
type alfgSource struct {
	state []uint64 // the window; nil until seeded
	arena *Arena   // nil = standalone (self-allocating)
	x0    uint32   // the seed, reduced by alfgX0
	// pos is the feed index in window mode and the draw count in
	// direct mode.
	pos    int32
	tap    int32 // window mode only
	direct bool  // small budget: draw directly until alfgLen draws
}

func (s *alfgSource) init(seed int64, arena *Arena, budget int) {
	alfgInit()
	*s = alfgSource{x0: alfgX0(seed), arena: arena, direct: directBudget(budget)}
}

// directBudget reports whether a draw budget (padded for variable-draw
// distributions) fits in direct mode; 0 means unbounded. The first
// upper bound keeps the padding arithmetic from overflowing.
func directBudget(budget int) bool {
	return budget > 0 && budget < alfgLen && budget+budget>>budgetSlackShift+budgetSlackMin < alfgLen
}

// seedWindow allocates and seeds the window, then replays the first
// replay draws (those a spilling direct stream already returned).
func (s *alfgSource) seedWindow(replay int32) {
	if s.arena != nil {
		s.state = s.arena.alloc(alfgLen)
	} else {
		s.state = make([]uint64, alfgLen)
	}
	tap, feed := alfgSeedVec(s.state, s.x0)
	for ; replay > 0; replay-- {
		tap--
		if tap < 0 {
			tap += alfgLen
		}
		feed--
		if feed < 0 {
			feed += alfgLen
		}
		s.state[feed] += s.state[tap]
	}
	s.tap, s.pos = tap, feed
}

// Uint64 returns the next raw generator word — bit-identical to
// rand.NewSource(seed)'s word stream at the same position.
func (s *alfgSource) Uint64() uint64 {
	if s.state != nil {
		tap, feed := s.tap-1, s.pos-1
		if tap < 0 {
			tap += alfgLen
		}
		if feed < 0 {
			feed += alfgLen
		}
		x := s.state[feed] + s.state[tap]
		s.state[feed] = x
		s.tap, s.pos = tap, feed
		return x
	}
	if !s.direct {
		s.seedWindow(0)
		if s.arena != nil {
			s.arena.noteSeed(true)
		}
		return s.Uint64()
	}
	if s.pos < alfgLen {
		if s.pos == 0 && s.arena != nil {
			s.arena.noteSeed(false)
		}
		x := alfgDirect(s.x0, s.pos)
		s.pos++
		return x
	}
	s.seedWindow(alfgLen)
	if s.arena != nil {
		s.arena.noteSpill()
	}
	return s.Uint64()
}

// Int63 implements rand.Source.
func (s *alfgSource) Int63() int64 { return int64(s.Uint64() & alfgMask) }

// cacheLineWords is the number of window words per 64-byte cache line.
const cacheLineWords = 8

// prefetch loads one word per cache line over the window slots the
// next min(n, 607) draws read, feed side and tap side, and returns
// their sum. The loads are independent, so their misses overlap
// instead of stalling one draw each. It is a pure read: state, pos
// and tap are untouched, and a source without a window (direct mode,
// not yet seeded) loads nothing.
func (s *alfgSource) prefetch(n int) uint64 {
	if s.state == nil || n <= 0 {
		return 0
	}
	n = min(n, alfgLen)
	return touchBehind(s.state, int(s.pos), n) + touchBehind(s.state, int(s.tap), n)
}

// touchBehind touches the n slots cyclically before p — the draw
// cursors count down, so these are the next n a cursor reads.
func touchBehind(w []uint64, p, n int) uint64 {
	if lo := p - n; lo >= 0 {
		return touchLines(w[lo:p])
	}
	return touchLines(w[:p]) + touchLines(w[alfgLen+p-n:])
}

// touchLines loads every cacheLineWords-th word of w and its last
// word, which hits every cache line w spans however it is aligned.
func touchLines(w []uint64) (sum uint64) {
	if len(w) == 0 {
		return 0
	}
	for i := 0; i < len(w); i += cacheLineWords {
		sum += w[i]
	}
	return sum + w[len(w)-1]
}

// Seed implements rand.Source: the source restarts from the new seed,
// dropping any window (a window stream reseeds lazily on next draw).
// Arena storage of the previous window is not reclaimed.
func (s *alfgSource) Seed(seed int64) {
	s.x0, s.state, s.pos, s.tap = alfgX0(seed), nil, 0, 0
}

// boxedRNG packs an RNG, its rand.Rand and its source into one
// allocation, so a derived stream costs one small header object plus
// its arena words — not the 3-object, ~5.4 KB heap constellation
// rand.New(rand.NewSource(seed)) builds.
type boxedRNG struct {
	g   RNG
	rr  rand.Rand
	src alfgSource
}

// newAlfgRNG returns an RNG over a lazily seeded ALFG source. All
// distribution code is the untouched stdlib rand.Rand running on the
// source, so sequences cannot drift from the rand.NewSource path.
func newAlfgRNG(seed int64, arena *Arena, budget int) *RNG {
	b := new(boxedRNG)
	b.src.init(seed, arena, budget)
	// rand.New's result is copied by value into the box; rand.Rand
	// holds only the source interfaces and scalar read state, so the
	// copy is safe at construction time.
	b.rr = *rand.New(&b.src)
	b.g = RNG{r: &b.rr, src: &b.src}
	return &b.g
}
