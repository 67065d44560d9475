package ran

import (
	"math"

	"rem/internal/chanmodel"
	"rem/internal/dsp"
	"rem/internal/geo"
	"rem/internal/ofdm"
	"rem/internal/sim"
)

// CellRadio is the instantaneous radio state of one cell as seen by
// the client.
type CellRadio struct {
	RSRP float64 // dBm, including fast fading (what legacy reports)
	// SNR is the instantaneous OFDM signal-to-noise ratio in dB,
	// including fast fading and the Doppler ICI penalty — the volatile
	// quantity of Fig. 11's "Legacy" curve.
	SNR float64
	// DDSNR is the delay-Doppler domain SNR in dB: fast fading is
	// averaged out by the grid-wide OTFS spreading, no ICI penalty
	// applies — Fig. 11's stable "REM" curve.
	DDSNR float64
}

// Hole is a coverage hole along the track (tunnel, deep cutting, or a
// frequency-selective blockage): cells with carrier ≥ MinFreqHz take
// ExtraLossDB additional loss while the client is inside
// [StartX, EndX]. MinFreqHz = 0 blocks every band (terrain);
// MinFreqHz ≈ 10 GHz models mmWave blockage that sub-6 GHz penetrates.
type Hole struct {
	StartX, EndX float64
	ExtraLossDB  float64
	MinFreqHz    float64
}

// RadioConfig parameterizes the radio environment.
type RadioConfig struct {
	PathLoss       geo.PathLoss
	NoisePerREDBm  float64 // thermal noise + noise figure per RE (default −125)
	InterfMarginDB float64 // average other-cell interference margin (default 12)
	ShadowStdDB    float64 // per-site log-normal shadowing σ (default 4)
	ShadowDecorrM  float64 // shadowing decorrelation distance (default 120)
	// CellShadowStdDB is the small per-cell residual on top of the
	// per-site shadowing: co-sited cells share their propagation paths
	// (paper §3.1), so almost all shadowing is common to the site.
	CellShadowStdDB float64
	SpeedMS         float64 // client speed (drives fading rate and ICI)
	SymbolT         float64 // OFDM symbol duration for the ICI penalty
	Holes           []Hole  // coverage holes along the track
	// ShadowDrawBudget is the expected raw-draw upper bound per
	// shadowing stream (roughly one Gauss per tick of the run), passed
	// to the stream factory as a residency hint: arena-backed factories
	// run small-budget streams in direct mode, with no 607-word
	// generator window. 0 means unbounded. The hint never affects draw
	// values (see sim.ArenaStreams.StreamBudget).
	ShadowDrawBudget int
}

// DefaultRadioConfig returns the HSR-calibrated defaults.
func DefaultRadioConfig(speedMS float64) RadioConfig {
	return RadioConfig{
		PathLoss:        geo.DefaultPathLoss(),
		NoisePerREDBm:   -125,
		InterfMarginDB:  18,
		ShadowStdDB:     3.5,
		ShadowDecorrM:   250,
		CellShadowStdDB: 0.75,
		SpeedMS:         speedMS,
		SymbolT:         ofdm.LTE().SymbolT,
	}
}

// cellFadeState is the per-cell AR(1) complex fading process.
type cellFadeState struct {
	g      complex128
	lastT  float64
	primed bool
	// rho memo keyed on the exact elapsed dt. Tick-driven callers
	// advance in near-fixed steps — t = n·dt wobbles across a few
	// ulp-distinct differences, and outage/visibility gaps add a few
	// multi-tick strides — so a small table keyed on the exact float
	// dt catches almost every advance while returning bitwise the
	// value a direct exp() would.
	memo  [8]fadeMemoEntry
	memoN int // entries filled; also the ring insert cursor
}

type fadeMemoEntry struct {
	dt, rho float64
}

func (f *cellFadeState) memoFind(dt float64) (float64, bool) {
	n := f.memoN
	if n > len(f.memo) {
		n = len(f.memo)
	}
	for i := 0; i < n; i++ {
		if f.memo[i].dt == dt {
			return f.memo[i].rho, true
		}
	}
	return 0, false
}

func (f *cellFadeState) memoPut(dt, rho float64) {
	f.memo[f.memoN%len(f.memo)] = fadeMemoEntry{dt: dt, rho: rho}
	f.memoN++
}

// cellRadioState carries everything Snapshot needs for one cell: the
// shadowing processes and fading state plus the per-cell constants
// (frequency path-loss term, coherence time, ICI ratio) that the naive
// per-tick recomputation spent most of its time on.
type cellRadioState struct {
	cell     *Cell
	shadow   *chanmodel.Shadowing // per-site, shared across co-sited cells
	cellSh   *chanmodel.Shadowing // per-cell residual
	fade     cellFadeState
	freqTerm float64 // PathLoss.FreqTermDB(FreqHz)
	tc       float64 // chanmodel.CoherenceTime(FreqHz, speed)
	ici      float64 // ofdm.ICIPowerRatio at this carrier
}

// RadioSnap is the flat per-tick radio view: one slot per cell,
// indexed by the deployment's dense cell IDs (slot 0 unused). A slot
// is meaningful only while Visible reports true — invisible slots
// keep stale bytes rather than paying a full clear per tick. The
// struct is owned by whoever built it (RadioEnv reuses one across
// Snapshot calls) and must be consumed before the next refill.
type RadioSnap struct {
	radio []CellRadio
	vis   []bool
	// Lazy fade-conversion state. A slot filled by the environment
	// starts with only DDSNR final; the fade-dependent RSRP/SNR fields
	// are derived on first Get from the stored linear fade sample —
	// bitwise the same arithmetic the eager path ran, just deferred
	// past the cells a tick never reads in full (REM policies evaluate
	// on DD-SNR, so most ticks read one full slot: the serving cell).
	full  []bool
	mean  []float64 // pre-fade mean RSRP (dBm)
	fadeP []float64 // linear fading power gain
	iciF  []float64 // Doppler ICI power ratio
	n     int
}

// NewRadioSnap returns an empty snapshot sized for cell IDs 1..maxID.
func NewRadioSnap(maxID int) *RadioSnap {
	if maxID < 0 {
		maxID = 0
	}
	return &RadioSnap{
		radio: make([]CellRadio, maxID+1),
		vis:   make([]bool, maxID+1),
		full:  make([]bool, maxID+1),
		mean:  make([]float64, maxID+1),
		fadeP: make([]float64, maxID+1),
		iciF:  make([]float64, maxID+1),
	}
}

// Reset marks every cell invisible (one memclr; no per-slot work).
// Stale full/mean/fade bytes are harmless: every put path overwrites
// them before the slot turns visible again.
func (s *RadioSnap) Reset() {
	clear(s.vis)
	s.n = 0
}

// Put stores cell id's complete radio state, growing the index if
// needed.
func (s *RadioSnap) Put(id int, cr CellRadio) {
	if id < 0 {
		return
	}
	for id >= len(s.vis) {
		s.radio = append(s.radio, CellRadio{})
		s.vis = append(s.vis, false)
		s.full = append(s.full, false)
		s.mean = append(s.mean, 0)
		s.fadeP = append(s.fadeP, 0)
		s.iciF = append(s.iciF, 0)
	}
	if !s.vis[id] {
		s.n++
	}
	s.radio[id], s.vis[id], s.full[id] = cr, true, true
}

// putLazy stores cell id's pre-conversion radio state: DDSNR is final,
// the fade-dependent fields are derived on first Get. Only the
// environment calls this, on a snapshot it sized itself.
func (s *RadioSnap) putLazy(id int, meanRSRP, meanSNR, fadeP, ici float64) {
	if !s.vis[id] {
		s.n++
	}
	s.vis[id], s.full[id] = true, false
	s.radio[id] = CellRadio{DDSNR: meanSNR}
	s.mean[id], s.fadeP[id], s.iciF[id] = meanRSRP, fadeP, ici
}

// fill derives a visible slot's fade-dependent fields — the same
// operations, in the same order, the eager snapshot used to run.
func (s *RadioSnap) fill(id int) {
	fadeDB := dsp.DB(s.fadeP[id])

	// ICI behaves as self-noise: SINR = S/(N + ici·S).
	lin := dsp.FromDB(s.radio[id].DDSNR + fadeDB)
	sinr := lin / (1 + s.iciF[id]*lin)

	s.radio[id].RSRP = s.mean[id] + fadeDB
	s.radio[id].SNR = dsp.DB(sinr)
	s.full[id] = true
}

// FillAll materializes every visible slot eagerly — the always-step
// verification path (mobility's Config.FullSnapshotInOutage). Results
// are bitwise identical to lazy fills.
func (s *RadioSnap) FillAll() {
	for id := 1; id < len(s.vis); id++ {
		if s.vis[id] && !s.full[id] {
			s.fill(id)
		}
	}
}

// Get returns cell id's radio state and whether it is visible.
func (s *RadioSnap) Get(id int) (CellRadio, bool) {
	if id < 0 || id >= len(s.vis) || !s.vis[id] {
		return CellRadio{}, false
	}
	if !s.full[id] {
		s.fill(id)
	}
	return s.radio[id], true
}

// DD returns cell id's delay-Doppler SNR and whether it is visible,
// without forcing the fade-dependent conversions — the REM hot path
// reads only this.
func (s *RadioSnap) DD(id int) (float64, bool) {
	if id < 0 || id >= len(s.vis) || !s.vis[id] {
		return 0, false
	}
	return s.radio[id].DDSNR, true
}

// Visible reports whether cell id is in the snapshot.
func (s *RadioSnap) Visible(id int) bool {
	return id >= 0 && id < len(s.vis) && s.vis[id]
}

// MaxID returns the highest indexable cell ID (iterate 1..MaxID).
func (s *RadioSnap) MaxID() int { return len(s.vis) - 1 }

// Len returns the number of visible cells.
func (s *RadioSnap) Len() int { return s.n }

// RadioEnv computes per-cell radio snapshots for a client moving along
// the deployment. It is deterministic for a given RNG stream.
type RadioEnv struct {
	Dep *Deployment
	Cfg RadioConfig

	// CellDown, when non-nil, is the fault plane's scheduled-outage
	// hook: a cell reported down at time t is omitted from snapshots
	// entirely (clients can neither measure nor connect to it), and its
	// fading process freezes until it restarts. The hook must be
	// deterministic in (cell, t) and draw no randomness — it is
	// consulted before any RNG advance so that a nil hook and a
	// hook returning false produce identical draw sequences.
	CellDown func(cell int, t float64) bool

	cells []cellRadioState
	snap  *RadioSnap // reused across Snapshot calls
	rng   *sim.RNG
}

// NewRadioEnv wires a radio environment over a deployment. It accepts
// any stream factory: the single-run path passes eager *sim.Streams,
// the fleet path passes arena-backed *sim.ArenaStreams — the seed
// schedule (and so every draw) is identical on either.
func NewRadioEnv(dep *Deployment, cfg RadioConfig, streams sim.StreamSource) *RadioEnv {
	e := &RadioEnv{
		Dep: dep,
		Cfg: cfg,
		// Fading draws two Gauss per visible cell per tick — far past
		// direct mode's 607 draws, so it stays an unbounded (full-window)
		// stream.
		rng: streams.Stream("ran.fading"),
	}
	// Stream creation order (per BS, then per cell) is part of the seed
	// schedule and must not change.
	siteShadow := make(map[int]*chanmodel.Shadowing, len(dep.BSs))
	for _, bs := range dep.BSs {
		siteShadow[bs.ID] = chanmodel.NewShadowing(
			streams.StreamBudget("ran.shadow.bs."+itoa(bs.ID), cfg.ShadowDrawBudget),
			cfg.ShadowStdDB, cfg.ShadowDecorrM)
	}
	e.cells = make([]cellRadioState, len(dep.Cells))
	for i, c := range dep.Cells {
		e.cells[i] = cellRadioState{
			cell:   c,
			shadow: siteShadow[c.BS.ID],
			cellSh: chanmodel.NewShadowing(
				streams.StreamBudget("ran.shadow.cell."+itoa(c.ID), cfg.ShadowDrawBudget),
				cfg.CellShadowStdDB, cfg.ShadowDecorrM),
			tc:  chanmodel.CoherenceTime(c.FreqHz, cfg.SpeedMS),
			ici: ofdm.ICIPowerRatio(chanmodel.MaxDoppler(c.FreqHz, cfg.SpeedMS), cfg.SymbolT),
		}
		if c.FreqHz > 0 {
			e.cells[i].freqTerm = cfg.PathLoss.FreqTermDB(c.FreqHz)
		}
	}
	return e
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	neg := v < 0
	if neg {
		v = -v
	}
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

// Prefetch hints that about ticks more snapshots are coming: it
// prefetches every shadowing process's generator state for that many
// draws — each site's process once, then each cell's — and returns the
// fold of the loaded words, which the caller must keep (see
// sim.RNG.Prefetch). These processes draw once per tick each, and with
// a few dozen of them per client their windows are cold by the next
// epoch; prefetching them in one burst overlaps the misses. It never
// changes a draw.
func (e *RadioEnv) Prefetch(ticks int) uint64 {
	var sum uint64
	var last *chanmodel.Shadowing
	for i := range e.cells {
		if sh := e.cells[i].shadow; sh != last {
			sum += sh.Prefetch(ticks)
			last = sh
		}
	}
	for i := range e.cells {
		sum += e.cells[i].cellSh.Prefetch(ticks)
	}
	return sum
}

// fadeSample advances a cell's AR(1) Rayleigh fading process to time t
// and returns the power gain (linear, mean 1).
func (e *RadioEnv) fadeSample(st *cellRadioState, t float64) float64 {
	f := &st.fade
	if !f.primed {
		f.g = e.rng.ComplexNorm(1)
		f.lastT = t
		f.primed = true
	} else if t > f.lastT {
		var rho float64
		if math.IsInf(st.tc, 1) {
			rho = 1
		} else {
			dt := t - f.lastT
			var hit bool
			if rho, hit = f.memoFind(dt); !hit {
				rho = math.Exp(-dt / st.tc)
				f.memoPut(dt, rho)
			}
		}
		f.g = complex(rho, 0)*f.g + e.rng.ComplexNorm(1-rho*rho)
		f.lastT = t
	}
	p := real(f.g)*real(f.g) + imag(f.g)*imag(f.g)
	if p < 1e-6 {
		p = 1e-6
	}
	return p
}

// Snapshot returns the radio state of every cell at client position pos
// and time t. Cells below the visibility floor (−140 dBm RSRP) are
// omitted. Every slot's DDSNR is final on return; the fade-dependent
// RSRP/SNR conversions are deferred to the slot's first Get, so ticks
// that read only DD-SNR (REM policies, detached clients) never pay
// them. The returned snapshot is owned by the environment and reused
// by the next Snapshot/SnapshotDD call: consume it before advancing.
func (e *RadioEnv) Snapshot(pos geo.Point, t float64) *RadioSnap {
	return e.snapshot(pos, t)
}

// SnapshotDD is the historical name of the outage fast path. Since the
// dB conversions became lazy snapshot-wide, it is identical to
// Snapshot — every radio process advances through the same draw
// sequence, and a full CellRadio (any cell's, not just fullID's) is a
// Get away. Kept so detached-path call sites read as what they are.
func (e *RadioEnv) SnapshotDD(pos geo.Point, t float64, fullID int) *RadioSnap {
	return e.snapshot(pos, t)
}

func (e *RadioEnv) snapshot(pos geo.Point, t float64) *RadioSnap {
	if e.snap == nil {
		maxID := 0
		for i := range e.cells {
			if id := e.cells[i].cell.ID; id > maxID {
				maxID = id
			}
		}
		e.snap = NewRadioSnap(maxID)
	}
	out := e.snap
	out.Reset()
	// Co-sited cells are contiguous in e.cells (deployment appends
	// per site, then per band) and share the base-station position,
	// so the distance term — the lone Log10 in the loop — is computed
	// once per site and the identical value reused for its siblings.
	var (
		lastBS   *BaseStation
		distTerm float64
	)
	for i := range e.cells {
		st := &e.cells[i]
		c := st.cell
		if e.CellDown != nil && e.CellDown(c.ID, t) {
			continue
		}
		if c.BS != lastBS {
			lastBS = c.BS
			distTerm = e.Cfg.PathLoss.DistTermDB(pos.Distance(c.BS.Pos))
		}
		pl := distTerm + st.freqTerm
		sh := st.shadow.At(pos.X) + st.cellSh.At(pos.X)
		meanRSRP := c.TxPowerDBm - pl - sh
		for _, h := range e.Cfg.Holes {
			if pos.X >= h.StartX && pos.X <= h.EndX && c.FreqHz >= h.MinFreqHz {
				meanRSRP -= h.ExtraLossDB
			}
		}
		if meanRSRP < -140 {
			continue
		}
		fade := e.fadeSample(st, t)
		meanSNR := meanRSRP - e.Cfg.NoisePerREDBm - e.Cfg.InterfMarginDB
		out.putLazy(c.ID, meanRSRP, meanSNR, fade, st.ici)
	}
	return out
}

// BestCell returns the cell with the strongest metric in a snapshot
// (RSRP when byRSRP, otherwise DDSNR) and whether any cell qualifies
// above the floor. The ascending-ID scan with a strict comparison
// keeps the lower ID on ties.
func BestCell(snap *RadioSnap, byRSRP bool, floor float64) (int, float64, bool) {
	bestID, bestV, found := 0, 0.0, false
	for id := 1; id < len(snap.vis); id++ {
		if !snap.vis[id] {
			continue
		}
		var v float64
		if byRSRP {
			if !snap.full[id] {
				snap.fill(id)
			}
			v = snap.radio[id].RSRP
		} else {
			v = snap.radio[id].DDSNR
		}
		if v < floor {
			continue
		}
		if !found || v > bestV {
			bestID, bestV, found = id, v, true
		}
	}
	return bestID, bestV, found
}
