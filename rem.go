package rem

import (
	"context"
	"io"

	"rem/internal/chanmodel"
	"rem/internal/crossband"
	"rem/internal/dsp"
	"rem/internal/eval"
	"rem/internal/fault"
	"rem/internal/fleet"
	"rem/internal/geo"
	"rem/internal/locate"
	"rem/internal/mobility"
	"rem/internal/obs"
	"rem/internal/otfs"
	"rem/internal/policy"
	"rem/internal/rrc"
	"rem/internal/sim"
	"rem/internal/trace"
	"rem/internal/transport"
)

// Re-exported core types. The internal packages remain the
// implementation; this facade is the supported API surface.
type (
	// Dataset describes one synthesized operational dataset (Table 4).
	Dataset = trace.Dataset
	// DatasetID selects a dataset.
	DatasetID = trace.DatasetID
	// Mode selects the mobility management under test.
	Mode = trace.Mode
	// Built is an assembled, ready-to-run scenario.
	Built = trace.Built
	// Result aggregates a mobility replay.
	Result = mobility.Result
	// FailureCause classifies a network failure (Table 2 taxonomy).
	FailureCause = mobility.FailureCause
	// Policy is one cell's handover policy.
	Policy = policy.Policy
	// Rule is one measurement-event rule (Table 1).
	Rule = policy.Rule
	// EventType is a 3GPP measurement event (A1–A5).
	EventType = policy.EventType
	// OffsetTable is the Δ^{i→j} table of Theorem 2.
	OffsetTable = policy.OffsetTable
	// Violation is a Theorem 2 breach.
	Violation = policy.Violation
	// Conflict is a detected two-cell policy conflict (Table 3).
	Conflict = policy.Conflict
	// Channel is a sparse delay-Doppler multipath channel (Eq. 1).
	Channel = chanmodel.Channel
	// Path is one propagation path.
	Path = chanmodel.Path
	// CrossBandEstimator runs Algorithm 1.
	CrossBandEstimator = crossband.Estimator
	// DDMatrix is a sampled delay-Doppler channel matrix (paper Eq. 6).
	DDMatrix = dsp.Matrix
	// CrossBandConfig parameterizes Algorithm 1's grid.
	CrossBandConfig = crossband.Config
	// PathEstimate is one recovered multipath component.
	PathEstimate = crossband.PathEstimate
	// OTFSModem converts between delay-Doppler and time-frequency.
	OTFSModem = otfs.Modem
	// Experiment is a registered paper table/figure driver.
	Experiment = eval.Experiment
	// ExperimentConfig scales experiment workloads. Its Workers field
	// bounds the parallel worker pool (0 = all cores); rendered
	// reports are byte-identical at any worker count.
	ExperimentConfig = eval.Config
	// Report is an experiment's rendered output.
	Report = eval.Report
	// TCPStall is one TCP stall event across a radio outage.
	TCPStall = transport.Stall
	// TransportSpec arms and configures the per-UE transport plane: a
	// delay-based congestion controller (gcc or bbr) driving a video,
	// bulk or web workload over the UE's simulated radio link.
	TransportSpec = transport.Spec
	// TransportTotals is one flow's per-run transport accounting
	// (delivered bytes, goodput, stall and rebuffer time).
	TransportTotals = transport.Totals
	// TransportStall is one transport-plane stall across a link-down
	// window; the same type as TCPStall.
	TransportStall = transport.Stall
	// FleetTransportSummary is the fleet-wide transport aggregate
	// attached to FleetSummary when a run arms the plane.
	FleetTransportSummary = fleet.TransportSummary
	// RangeObservation is one base station's delay-Doppler geometry
	// reading (paper §10: delay-Doppler based localization).
	RangeObservation = locate.RangeObservation
	// Fix is a track-constrained localization solution.
	Fix = locate.Fix
	// Tracker is the α-β predictive trajectory filter (paper §10).
	Tracker = locate.Tracker
	// Point is a 2-D track-frame position.
	Point = geo.Point
	// Trajectory is a constant-speed client path; PiecewiseTrajectory
	// adds acceleration/braking phases.
	Trajectory = geo.Trajectory
	// PiecewiseTrajectory is a speed-profiled client path.
	PiecewiseTrajectory = geo.PiecewiseTrajectory
	// MeasurementReport / HandoverCommand are the RRC signaling
	// messages the delay-Doppler overlay transports.
	MeasurementReport = rrc.MeasurementReport
	// HandoverCommand is the serving cell's execution message.
	HandoverCommand = rrc.HandoverCommand
	// PathTracker follows multipath components across measurement
	// cycles and predicts their drift (paper §4's
	// movement-by-inertia).
	PathTracker = locate.PathTracker
	// PathTrackerConfig tunes the tracker.
	PathTrackerConfig = locate.PathTrackerConfig
	// FleetSpec configures a multi-UE fleet run.
	FleetSpec = fleet.Spec
	// FleetResult is a completed fleet run (summary + rendered report).
	FleetResult = fleet.Result
	// FleetSummary is the machine-readable fleet aggregate, shared by
	// remserve and the CLIs' -json mode.
	FleetSummary = fleet.Summary
	// FleetEvent is one per-UE fleet occurrence (the NDJSON record).
	FleetEvent = fleet.Event
	// FleetOptions adds observation hooks to a fleet run.
	FleetOptions = fleet.Options
	// FleetProgress is the per-epoch fleet heartbeat.
	FleetProgress = fleet.Progress
	// FaultPlan is a deterministic fault-injection schedule (cell
	// outages, signaling loss/delay/corruption, CSI degradation and
	// Gilbert–Elliott burst loss windows).
	FaultPlan = fault.Plan
	// FaultGenSpec parameterizes seed-derived fault plan generation.
	FaultGenSpec = fault.GenSpec
	// Telemetry is the deterministic observability plane: a metrics
	// registry plus per-UE event recorders. Arming it never changes a
	// run's bytes, and its own outputs are byte-identical at any
	// worker count.
	Telemetry = obs.Telemetry
	// TelemetryConfig sizes the observability plane.
	TelemetryConfig = obs.Config
	// TimelineEvent is one structured handover-lifecycle event.
	TimelineEvent = obs.Event
	// MetricsSnapshot is a merged, deterministic view of every metric.
	MetricsSnapshot = obs.Snapshot
	// MetricSample is one metric series inside a snapshot.
	MetricSample = obs.Sample
)

// Dataset identifiers.
const (
	LowMobility     = trace.LowMobility
	BeijingTaiyuan  = trace.BeijingTaiyuan
	BeijingShanghai = trace.BeijingShanghai
)

// Modes.
const (
	// ModeLegacy is today's wireless-signal-strength 4G/5G stack.
	ModeLegacy = trace.Legacy
	// ModeREM is the full REM system.
	ModeREM = trace.REM
	// ModeREMNoCrossBand ablates cross-band estimation.
	ModeREMNoCrossBand = trace.REMNoCrossBand
	// ModeLegacyFixedPolicy repairs legacy thresholds per Theorem 2
	// (the Fig. 15 arm).
	ModeLegacyFixedPolicy = trace.LegacyFixedPolicy
)

// Failure causes (Table 2 taxonomy).
const (
	CauseFeedback     = mobility.CauseFeedback
	CauseMissedCell   = mobility.CauseMissedCell
	CauseHOCmdLoss    = mobility.CauseHOCmdLoss
	CauseCoverageHole = mobility.CauseCoverageHole
)

// Measurement events.
const (
	A1 = policy.A1
	A2 = policy.A2
	A3 = policy.A3
	A4 = policy.A4
	A5 = policy.A5
)

// ScenarioConfig selects dataset, speed, mode, duration and seed for a
// simulation run.
type ScenarioConfig struct {
	Dataset  DatasetID
	SpeedKmh float64
	Mode     Mode
	Duration float64 // simulated seconds
	Seed     int64
	// Faults arms the deterministic fault plane (nil = disabled; the
	// run is then byte-identical to one without the fault plane).
	Faults *FaultPlan
	// Transport arms the per-UE transport plane (nil = disabled). An
	// armed scenario records per-interval link-down fractions during
	// the mobility replay — recording draws no randomness, so a
	// disarmed run stays byte-identical to pre-transport builds — and
	// ReplayTransport then steps the configured flow over the recorded
	// link trace.
	Transport *TransportSpec
}

// DescribeDataset returns a dataset's calibrated descriptor.
func DescribeDataset(id DatasetID) Dataset { return trace.Describe(id) }

// ParseDataset maps a user-facing dataset name ("beijing-shanghai",
// "la", ...) to its ID.
func ParseDataset(name string) (DatasetID, error) { return trace.ParseDataset(name) }

// ParseMode maps a user-facing mode name ("legacy", "rem", ...) to its
// Mode.
func ParseMode(name string) (Mode, error) { return trace.ParseMode(name) }

// ReplicaSeed derives the i-th replica/UE seed from a master seed. It
// is the one seed schedule shared by remsim -replicas and the fleet
// engine, so a K-replica CLI run and a K-UE fleet run agree on per-UE
// randomness roots.
func ReplicaSeed(master int64, i int) int64 { return sim.ReplicaSeed(master, i) }

// RunFleet steps a fleet of concurrent UE sessions against one shared
// deployment; results are byte-identical at any worker count.
func RunFleet(ctx context.Context, spec FleetSpec) (*FleetResult, error) {
	return fleet.Run(ctx, spec)
}

// RunFleetWithOptions is RunFleet with event/progress hooks.
func RunFleetWithOptions(ctx context.Context, spec FleetSpec, opts FleetOptions) (*FleetResult, error) {
	return fleet.RunWithOptions(ctx, spec, opts)
}

// SummarizeFleet reduces independent per-replica results into the
// machine-readable fleet summary (remsim's -json output).
func SummarizeFleet(ds DatasetID, mode Mode, speedKmh, durationSec float64,
	seed int64, results []*Result,
) *FleetSummary {
	return fleet.SummarizeResults(ds, mode, speedKmh, durationSec, seed, results)
}

// Datasets lists all three synthesized datasets.
func Datasets() []Dataset { return trace.All() }

// BuildScenario assembles a runnable scenario: deployment, radio
// environment, operator policies (simplified and Theorem-2-enforced
// for REM modes), measurement schedule and signaling transport.
func BuildScenario(cfg ScenarioConfig) (*Built, error) {
	return trace.Build(trace.BuildConfig{
		Dataset:   trace.Describe(cfg.Dataset),
		SpeedKmh:  cfg.SpeedKmh,
		Mode:      cfg.Mode,
		Duration:  cfg.Duration,
		Seed:      cfg.Seed,
		Faults:    cfg.Faults,
		Transport: cfg.Transport,
	})
}

// LoadFaultPlan reads and validates a JSON fault plan file (the
// remsim/remeval -faults argument).
func LoadFaultPlan(path string) (*FaultPlan, error) { return fault.Load(path) }

// ParseFaultPlan unmarshals and validates a JSON fault plan.
func ParseFaultPlan(data []byte) (*FaultPlan, error) { return fault.Parse(data) }

// GenerateFaultPlan derives a random fault plan from a master seed.
// The schedule depends only on (seed, spec), making generated plans as
// reproducible as committed JSON files.
func GenerateFaultPlan(seed int64, spec FaultGenSpec) (*FaultPlan, error) {
	return fault.Generate(sim.NewStreams(seed), spec)
}

// AttachTelemetry gives a built scenario a recording scope on tel;
// the scope ID becomes the "ue" field of every timeline event the run
// emits. Attaching telemetry never changes the run's result bytes.
func AttachTelemetry(b *Built, tel *Telemetry, scope int) {
	if b == nil || tel == nil {
		return
	}
	b.Scenario.Obs = tel.Scope(scope)
}

// ObserveTCPStalls replays a finished run's radio outages through the
// deterministic TCP model and records the resulting stall events and
// histograms into the run's telemetry scope.
func ObserveTCPStalls(tel *Telemetry, scope int, res *Result) {
	if tel == nil || res == nil || len(res.Outages) == 0 {
		return
	}
	transport.ObserveTCPStalls(tel.Scope(scope), res.Outages)
}

// ReplayTransport steps a congestion-controlled flow over a finished
// run's recorded link trace and returns its totals and stall events.
// The scenario must have been built with ScenarioConfig.Transport set
// (which arms link-trace recording); the flow's randomness comes from
// the scenario's own "transport.link" stream, so the result depends
// only on (config, seed). Returns nil totals when the run recorded no
// link trace.
func ReplayTransport(spec TransportSpec, b *Built, res *Result) (*TransportTotals, []TransportStall, error) {
	if b == nil || res == nil || len(res.LinkDown) == 0 {
		return nil, nil, nil
	}
	spec = spec.Defaulted()
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	rng := b.Streams.StreamBudget(transport.StreamLink, transport.DrawBudget(b.Scenario.Duration))
	ue := transport.NewUE(spec, rng)
	for k, down := range res.LinkDown {
		ue.Step(res.SNRTrace[k], down)
	}
	ue.Finish()
	tot := ue.Totals()
	return &tot, ue.Stalls(), nil
}

// NewTelemetry returns an armed observability plane. Pass a zero
// TelemetryConfig for defaults. Wire it into a fleet run via
// FleetOptions.Telemetry or an experiment via
// ExperimentConfig.Telemetry; scenario-level runs attach a per-UE
// scope through the internal mobility hooks.
func NewTelemetry(cfg TelemetryConfig) *Telemetry { return obs.New(cfg) }

// MarshalTimeline renders timeline events as NDJSON (one JSON object
// per line), the format every timeline endpoint and file uses.
func MarshalTimeline(events []TimelineEvent) []byte { return obs.MarshalNDJSON(events) }

// ReadTimeline parses an NDJSON timeline stream, rejecting unknown
// fields so schema drift is caught at the boundary.
func ReadTimeline(r io.Reader) ([]TimelineEvent, error) { return obs.ReadNDJSON(r) }

// SortTimeline orders events by (time, UE, sequence), the canonical
// deterministic timeline order.
func SortTimeline(events []TimelineEvent) { obs.SortEvents(events) }

// PrometheusContentType is the Content-Type of Prometheus text
// exposition format 0.0.4, which MetricsSnapshot.WritePrometheus and
// remserve's /metrics emit.
const PrometheusContentType = obs.PrometheusContentType

// RunScenario executes a built scenario through the three-phase
// handover engine and returns the replay result.
func RunScenario(b *Built) (*Result, error) {
	return mobility.Run(b.Streams, b.Scenario)
}

// NewCrossBandEstimator returns Algorithm 1 for the given grid.
func NewCrossBandEstimator(cfg CrossBandConfig) (*CrossBandEstimator, error) {
	return crossband.NewEstimator(cfg)
}

// NewOTFSModem returns an M×N delay-Doppler modem.
func NewOTFSModem(m, n int) (*OTFSModem, error) { return otfs.NewModem(m, n) }

// DDChannelMatrix samples a channel's delay-Doppler response on the
// estimator grid at absolute time t0 — the input to Algorithm 1.
func DDChannelMatrix(ch *Channel, cfg CrossBandConfig, t0 float64) *DDMatrix {
	return ch.DDResponse(cfg.M, cfg.N, cfg.DeltaF, cfg.SymT, t0).Matrix()
}

// DDSNR returns the wideband SNR (dB) implied by a delay-Doppler
// channel matrix and a noise power.
func DDSNR(h *DDMatrix, noiseVar float64) float64 { return crossband.SNRFromDD(h, noiseVar) }

// SimplifyPolicy applies REM's four-step policy simplification (§5.3)
// with default settings (all bands co-sited, 2 dB hysteresis floor).
func SimplifyPolicy(p *Policy) *Policy {
	return policy.Simplify(p, policy.SimplifyConfig{MinHystDB: 2})
}

// CheckTheorem2 verifies conflict freedom of an offset table; a nil
// graph treats all cells as co-covering.
func CheckTheorem2(t OffsetTable) []Violation { return policy.CheckTheorem2(t, nil) }

// EnforceTheorem2 minimally raises offsets until Theorem 2 holds and
// returns the number of adjustments.
func EnforceTheorem2(t OffsetTable) int { return policy.EnforceTheorem2(t, nil) }

// DetectConflicts finds all two-cell policy conflicts between two
// cells' policies over the realistic RSRP range.
func DetectConflicts(a, b *Policy) []Conflict {
	return policy.DetectPairConflicts(a, b, policy.DefaultMetricRange())
}

// Experiments lists all paper table/figure drivers.
func Experiments() []Experiment { return eval.Experiments() }

// RunExperiment runs one experiment by ID (e.g. "table5", "fig10").
func RunExperiment(id string, cfg ExperimentConfig) (*Report, error) {
	e, ok := eval.ByID(id)
	if !ok {
		return nil, errUnknownExperiment(id)
	}
	return e.Run(cfg)
}

// DefaultExperimentConfig returns full-scale experiment settings;
// QuickExperimentConfig returns a fast reduced-scale variant.
func DefaultExperimentConfig() ExperimentConfig { return eval.DefaultConfig() }

// QuickExperimentConfig returns reduced-scale experiment settings.
func QuickExperimentConfig() ExperimentConfig { return eval.QuickConfig() }

// Localize solves a track-constrained position from two or more
// delay-Doppler range observations (paper §10's localization outlook).
func Localize(obs []RangeObservation) (Fix, error) { return locate.Localize(obs) }

// ObserveRange converts a channel estimate into a range observation
// (strongest path treated as line-of-sight).
func ObserveRange(ch *Channel, bs Point, carrierHz float64) (RangeObservation, error) {
	return locate.ObserveChannel(ch, bs, carrierHz)
}

// NewTracker returns an α-β trajectory tracker; non-positive gains
// select defaults.
func NewTracker(alpha, beta float64) *Tracker { return locate.NewTracker(alpha, beta) }

// NewPathTracker follows Algorithm 1's per-path estimates across
// measurement cycles (association + drift prediction).
func NewPathTracker(cfg PathTrackerConfig) *PathTracker { return locate.NewPathTracker(cfg) }

// DecodeSignaling parses an RRC signaling payload delivered by the
// overlay; it returns *MeasurementReport or *HandoverCommand.
func DecodeSignaling(bits []byte) (any, error) { return rrc.Decode(bits) }

// DB converts a linear power ratio to decibels; FromDB inverts it.
func DB(lin float64) float64 { return dsp.DB(lin) }

// FromDB converts decibels to a linear power ratio.
func FromDB(db float64) float64 { return dsp.FromDB(db) }

type unknownExperimentError string

func (e unknownExperimentError) Error() string {
	return "rem: unknown experiment " + string(e)
}

func errUnknownExperiment(id string) error { return unknownExperimentError(id) }
