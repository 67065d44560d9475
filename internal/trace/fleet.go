package trace

import (
	"fmt"

	"rem/internal/chanmodel"
	"rem/internal/fault"
	"rem/internal/geo"
	"rem/internal/mobility"
	"rem/internal/policy"
	"rem/internal/ran"
	"rem/internal/sim"
)

// FleetConfig parameterizes a shared-world fleet build: one deployment
// and policy set, many concurrent UEs.
type FleetConfig struct {
	BuildConfig
	// StartSpreadM spreads UE start positions uniformly over this many
	// meters of track (default 2 site spacings): a rail line carries
	// many trains at once, not one.
	StartSpreadM float64
	// SpeedJitterFrac perturbs each UE's speed by a uniform factor in
	// [1-f, 1+f] (default 0.05) so fleets do not move in lockstep.
	SpeedJitterFrac float64
}

// Shared is the world every UE of a fleet lives in: the deployment,
// operator policies and radio configuration are built once from the
// fleet seed, so all UEs see the same cells and the same coverage
// holes. Shared is immutable after construction and safe for
// concurrent BuildUE calls.
type Shared struct {
	Cfg      FleetConfig
	Dep      *ran.Deployment
	Policies map[int]*policy.Policy
	Coverage *policy.CoverageGraph
	Channels map[int]int
	MeasCfg  ran.MeasConfig
	RadioCfg ran.RadioConfig
	OTFS     bool
	speedMS  float64
}

// BuildFleetShared assembles the shared world. The track is sized for
// the fastest, farthest-starting UE so nobody runs off the deployment.
func BuildFleetShared(cfg FleetConfig) (*Shared, error) {
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("trace: non-positive duration")
	}
	if cfg.SpeedKmh <= 0 {
		return nil, fmt.Errorf("trace: non-positive speed")
	}
	if cfg.SpeedJitterFrac < 0 || cfg.SpeedJitterFrac >= 1 {
		return nil, fmt.Errorf("trace: speed jitter %g outside [0, 1)", cfg.SpeedJitterFrac)
	}
	if err := cfg.Faults.Validate(); err != nil {
		return nil, err
	}
	ds := cfg.Dataset
	if cfg.StartSpreadM == 0 {
		cfg.StartSpreadM = 2 * ds.SiteSpacingM
	}
	if cfg.SpeedJitterFrac == 0 {
		cfg.SpeedJitterFrac = 0.05
	}
	streams := sim.NewStreams(cfg.Seed)
	speed := chanmodel.KmhToMs(cfg.SpeedKmh)
	maxSpeed := speed * (1 + cfg.SpeedJitterFrac)
	trackLen := maxSpeed*cfg.Duration + cfg.StartSpreadM + 4*ds.SiteSpacingM

	dep, err := buildDeployment(streams, ds, trackLen)
	if err != nil {
		return nil, err
	}
	policies := GeneratePolicies(streams.Stream("policies"), dep, ds.Mix)
	coverage := BuildCoverage(dep)
	channels := make(map[int]int, len(dep.Cells))
	for _, c := range dep.Cells {
		channels[c.ID] = c.Channel
	}
	policies, measCfg, otfs, err := applyMode(cfg.Mode, dep, policies, channels, coverage, speed)
	if err != nil {
		return nil, err
	}
	radioCfg, err := buildRadioCfg(streams, ds, speed, trackLen)
	if err != nil {
		return nil, err
	}
	return &Shared{
		Cfg: cfg, Dep: dep,
		Policies: policies, Coverage: coverage, Channels: channels,
		MeasCfg: measCfg, RadioCfg: radioCfg, OTFS: otfs,
		speedMS: speed,
	}, nil
}

// UESeed returns the master seed UE ue's private streams are rooted
// at. It is exposed so callers (CLIs, the serving layer) can report
// and reproduce a single UE of a fleet.
func (s *Shared) UESeed(ue int) int64 { return sim.ReplicaSeed(s.Cfg.Seed, ue) }

// BuildUE assembles UE ue's private scenario over the shared world:
// its own radio environment realization (shadowing/fading streams),
// signaling link, start position and speed, all derived from
// UESeed(ue) so the UE's entire draw sequence depends only on
// (fleet seed, UE index) — never on which worker runs it or on the
// other UEs. The returned Built is independent of every other UE's
// and safe to run concurrently with them.
func (s *Shared) BuildUE(ue int) (*Built, error) {
	if ue < 0 {
		return nil, fmt.Errorf("trace: negative UE index %d", ue)
	}
	return s.buildUE(sim.NewStreams(s.UESeed(ue)), ue)
}

// BuildUEIn is BuildUE with the UE's generator state placed in the
// fleet's arena: streams seed lazily on first draw, and small-budget
// streams (the UE stream, shadowing in short runs) run in direct mode,
// computing each draw from the seed instead of holding a 607-word
// window. Draw sequences — and so every fleet result — are
// byte-identical to BuildUE's; only state placement, residency and
// seeding time change. Safe to call
// concurrently for different UEs (the arena allocator is
// mutex-guarded; placement order never affects values).
func (s *Shared) BuildUEIn(arena *sim.Arena, ue int) (*Built, error) {
	if ue < 0 {
		return nil, fmt.Errorf("trace: negative UE index %d", ue)
	}
	return s.buildUE(arena.Streams(s.UESeed(ue)), ue)
}

// drawBudgets returns the per-stream raw-draw budget hints for a run
// of the shared duration: roughly one draw per tick plus slack for the
// tick-driven streams. Budgets are hints, not contracts — an arena
// stream that exceeds one spills to a full window and stays correct —
// and eager factories ignore them entirely.
func (s *Shared) drawBudgets() (ticks int) {
	return int(s.Cfg.Duration/mobility.DefaultConfig().TickSec) + 2
}

func (s *Shared) buildUE(streams sim.StreamSource, ue int) (*Built, error) {
	ticks := s.drawBudgets()
	// The UE stream draws exactly two uniforms (start position, speed
	// jitter).
	ueRNG := streams.StreamBudget("fleet.ue", 4)
	startX := s.Cfg.Dataset.SiteSpacingM/2 + ueRNG.Uniform(0, s.Cfg.StartSpreadM)
	speed := s.speedMS * (1 + ueRNG.Uniform(-s.Cfg.SpeedJitterFrac, s.Cfg.SpeedJitterFrac))

	// Per-UE copies of the speed-dependent knobs: fading rate, ICI and
	// (for legacy RSRP measurement) measurement error all follow the
	// UE's actual speed. REM's delay-Doppler measurement config keeps
	// its own error model, exactly as in the single-run Build.
	radioCfg := s.RadioCfg
	radioCfg.SpeedMS = speed
	// Shadowing advances once per tick (one Gauss each); budget it
	// accordingly so, in short runs, the fleet's many per-site/per-cell
	// shadow streams run in direct mode and hold no window at all
	// instead of 4.9 KB each.
	radioCfg.ShadowDrawBudget = ticks + 4
	measCfg := s.MeasCfg
	if !s.OTFS {
		measCfg.MeasNoiseStdDB = 0.5 + speed/30
	}

	env := ran.NewRadioEnv(s.Dep, radioCfg, streams)
	// The link draws a Bernoulli or two per signaling delivery, at most
	// a few per tick.
	link := ran.NewLinkModel(streams.StreamBudget("link", 4*ticks+8), ran.DefaultLinkConfig())
	// Every UE gets its own injector over the one shared plan: outage
	// and CSI windows are common to the fleet (they model the world),
	// while per-delivery randomness comes from the UE's private stream
	// — so outcomes stay independent of worker count and of the other
	// UEs, exactly like the rest of the per-UE draw sequence.
	var inj *fault.Injector
	if !s.Cfg.Faults.Empty() {
		inj = fault.NewInjector(s.Cfg.Faults, streams.Stream("fault.injector"))
		env.CellDown = inj.CellDown
		if measCfg.CrossBand {
			measCfg.CSIFault = inj.CSIMode
		}
	}
	sc := &mobility.Scenario{
		Dep:           s.Dep,
		Env:           env,
		Policies:      s.Policies,
		Link:          link,
		MeasCfg:       measCfg,
		Traj:          geo.Trajectory{SpeedMS: speed, StartX: startX},
		Cfg:           mobility.DefaultConfig(),
		OTFSSignaling: s.OTFS,
		Duration:      s.Cfg.Duration,
		Faults:        inj,
	}
	if s.Cfg.Transport != nil {
		sc.RecordLink = true
	}
	return &Built{
		Scenario: sc, Streams: streams,
		Policies: s.Policies, Coverage: s.Coverage, Channels: s.Channels,
	}, nil
}
