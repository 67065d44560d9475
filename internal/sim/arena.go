package sim

import "sync"

// Arena is a grow-only allocator for RNG state: the generator windows
// of many streams packed into large contiguous chunks, so a
// fleet epoch streams its generator state roughly in stepping order
// instead of pointer-chasing one ~5 KB heap object per stream. Nothing
// is ever freed; an arena lives exactly as long as the fleet it backs.
//
// Alloc and the stats counters are mutex-guarded, so streams owned by
// different goroutines may seed lazily (and even spill) concurrently —
// the fleet's epoch workers do. Placement then follows first-draw
// order, which groups a UE's streams together because one worker steps
// one UE at a time. Draw *values* never depend on placement, so runs
// are byte-identical whatever the interleaving.
type Arena struct {
	mu  sync.Mutex
	cur []uint64 // remaining tail of the active chunk

	chunkWords int
	stats      ArenaStats
}

// arenaChunkWords is the default chunk: 64 Ki words = 512 KiB.
const arenaChunkWords = 64 << 10

// ArenaStats is a point-in-time accounting snapshot, the basis of the
// bytes-of-RNG-state-per-UE benchmark stat.
type ArenaStats struct {
	// Streams counts RNGs derived from the arena; Seeded those that
	// have drawn at least once (Tapes + Vecs = Seeded). Tapes counts
	// the direct-mode streams among them, which hold no arena words;
	// Vecs those holding a 607-word window.
	Streams int
	Seeded  int
	Tapes   int
	Vecs    int
	// Spills counts direct streams that passed 607 draws and upgraded
	// to full windows. A healthy budget schedule keeps this at (or
	// near) zero; each spill costs one reseed + replay.
	Spills int
	// LiveBytes is the window state actually allocated to streams;
	// ReservedBytes adds unused chunk tails.
	LiveBytes     int64
	ReservedBytes int64
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{chunkWords: arenaChunkWords} }

// alloc carves an n-word segment. Requests beyond a quarter chunk get
// a dedicated allocation so a large request cannot strand a mostly
// full chunk tail.
func (a *Arena) alloc(n int) []uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stats.LiveBytes += int64(n) * 8
	if n > len(a.cur) {
		if n >= a.chunkWords/4 {
			a.stats.ReservedBytes += int64(n) * 8
			return make([]uint64, n)
		}
		a.cur = make([]uint64, a.chunkWords)
		a.stats.ReservedBytes += int64(a.chunkWords) * 8
	}
	s := a.cur[:n:n]
	a.cur = a.cur[n:]
	return s
}

func (a *Arena) noteStream() {
	a.mu.Lock()
	a.stats.Streams++
	a.mu.Unlock()
}

func (a *Arena) noteSeed(vec bool) {
	a.mu.Lock()
	a.stats.Seeded++
	if vec {
		a.stats.Vecs++
	} else {
		a.stats.Tapes++
	}
	a.mu.Unlock()
}

func (a *Arena) noteSpill() {
	a.mu.Lock()
	a.stats.Spills++
	a.stats.Tapes--
	a.stats.Vecs++
	a.mu.Unlock()
}

// Stats returns a snapshot of the arena accounting.
func (a *Arena) Stats() ArenaStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// EagerStreamBytes is the resident heap footprint one eagerly seeded
// stdlib stream used to cost: the 4872-byte rngSource rounded to its
// 5376-byte size class, plus the rand.Rand (48 B) and RNG (16 B)
// wrapper objects. Arena accounting reports it as the like-for-like
// "before" figure next to LiveBytes.
const EagerStreamBytes = 5376 + 48 + 16

// Streams derives an ArenaStreams factory rooted at seed whose RNGs
// keep their state in the arena.
func (a *Arena) Streams(seed int64) *ArenaStreams {
	return &ArenaStreams{seed: seed, arena: a}
}

// ArenaStreams mirrors Streams — same name-hash seed schedule, so a
// given (master seed, name) yields the identical draw sequence on
// either factory — but derives lazily seeded, arena-resident RNGs.
// Like Streams it is immutable and safe for concurrent use; the RNGs
// it returns are single-goroutine.
type ArenaStreams struct {
	seed  int64
	arena *Arena
}

// Stream returns the deterministic arena-backed RNG for a name.
func (s *ArenaStreams) Stream(name string) *RNG { return s.StreamBudget(name, 0) }

// StreamBudget returns the stream with a draw-budget hint: the
// expected upper bound on raw 64-bit draws the caller will make. Small
// budgets (padded, under 607) run in direct mode, computing each draw
// from the seed with no window at all; 0 means unbounded. The hint
// never affects draw values — a direct stream that reaches 607 draws
// transparently upgrades to a full window — only resident bytes and
// per-draw cost.
func (s *ArenaStreams) StreamBudget(name string, budget int) *RNG {
	s.arena.noteStream()
	return newAlfgRNG(s.seed^int64(fnv64a(name)), s.arena, budget)
}

// Seed returns the master seed the factory was built with.
func (s *ArenaStreams) Seed() int64 { return s.seed }

// Arena returns the backing arena (for stats reporting).
func (s *ArenaStreams) Arena() *Arena { return s.arena }
