// Package transport is the per-UE transport plane: a deterministic
// congestion-controlled flow simulated over the radio link a UE
// actually experiences — serving-cell SNR → Shannon-style capacity,
// handover interruptions and RLF outages → link-down windows with
// TCP-flavored RTO recovery (StallForOutage), queueing
// delay from offered load vs capacity, and jitter/loss drawn from the
// dedicated "transport.link" RNG stream so disarmed runs stay
// byte-identical.
//
// Two congestion controllers plug in behind the Controller interface:
// "gcc" (delay-gradient trendline filter + overuse detector + AIMD,
// after the libwebrtc/Chrome receiver behavior) and "bbr"
// (bandwidth/min-RTT probing state machine). Application workloads
// ("video" CBR with rebuffer accounting, "bulk" transfer, "web"
// request/response) run on top and turn link behavior into
// user-visible goodput, stall and rebuffer totals.
//
// Determinism contract: a UE's transport evolution depends only on its
// spec, its link history (SNR trace + down fractions) and its private
// RNG stream — never on wall clock, worker count or shard placement.
// Exactly two draws are taken from the stream per link interval,
// before any branching, so the draw sequence is independent of link
// state.
package transport

import (
	"fmt"
	"math"
)

// IntervalSec is the transport tick: one step per SNR trace sample
// (the mobility plane records the serving-cell SNR every 0.1 s).
const IntervalSec = 0.1

// StreamLink names the dedicated RNG stream the link model draws
// jitter and loss from. Named streams are mutually independent, so
// arming transport never perturbs any pre-existing stream's draws.
const StreamLink = "transport.link"

// DrawBudget bounds the number of RNG draws the link model takes over
// a run of the given duration: two draws per interval (jitter can
// consume extra underlying words in the Gaussian tail) plus slack.
func DrawBudget(durationSec float64) int {
	return 3*int(durationSec/IntervalSec) + 16
}

// Controllers.
const (
	ControllerGCC = "gcc"
	ControllerBBR = "bbr"
)

// Workloads.
const (
	WorkloadVideo = "video"
	WorkloadBulk  = "bulk"
	WorkloadWeb   = "web"
)

// Spec configures one UE's transport flow. The zero value is invalid;
// call Defaulted (or let fleet.Spec normalization do it) first. All
// fields marshal with omitempty so a defaulted spec round-trips the
// cluster wire compactly.
type Spec struct {
	// Controller selects the congestion controller: "gcc" (default)
	// or "bbr".
	Controller string `json:"controller,omitempty"`
	// Workload selects the application: "video" (default), "bulk" or
	// "web".
	Workload string `json:"workload,omitempty"`
	// VideoRateMbps is the CBR video encode rate (default 4).
	VideoRateMbps float64 `json:"video_rate_mbps,omitempty"`
	// StartRateMbps seeds the controller (default 1).
	StartRateMbps float64 `json:"start_rate_mbps,omitempty"`
	// MinRateMbps / MaxRateMbps clamp the controller (defaults 0.05 / 50).
	MinRateMbps float64 `json:"min_rate_mbps,omitempty"`
	MaxRateMbps float64 `json:"max_rate_mbps,omitempty"`
	// BandwidthMHz sizes the Shannon capacity of the serving link
	// (default 10).
	BandwidthMHz float64 `json:"bandwidth_mhz,omitempty"`
	// BaseRTTSec is the propagation RTT under an empty queue
	// (default 0.03).
	BaseRTTSec float64 `json:"base_rtt_sec,omitempty"`
	// JitterStdSec is the per-interval delay jitter std dev
	// (default 0.002).
	JitterStdSec float64 `json:"jitter_std_sec,omitempty"`
	// LossRate is the random (non-congestion) loss probability per
	// interval (default 0.005).
	LossRate float64 `json:"loss_rate,omitempty"`
	// Stall, when non-zero, overrides the RTO recovery model applied
	// to link-down windows.
	Stall StallConfig `json:"stall,omitempty"`
}

// Defaulted fills zero fields with defaults and returns the spec.
func (s Spec) Defaulted() Spec {
	if s.Controller == "" {
		s.Controller = ControllerGCC
	}
	if s.Workload == "" {
		s.Workload = WorkloadVideo
	}
	if s.VideoRateMbps <= 0 {
		s.VideoRateMbps = 4
	}
	if s.StartRateMbps <= 0 {
		s.StartRateMbps = 1
	}
	if s.MinRateMbps <= 0 {
		s.MinRateMbps = 0.05
	}
	if s.MaxRateMbps <= 0 {
		s.MaxRateMbps = 50
	}
	if s.BandwidthMHz <= 0 {
		s.BandwidthMHz = 10
	}
	if s.BaseRTTSec <= 0 {
		s.BaseRTTSec = 0.03
	}
	if s.JitterStdSec <= 0 {
		s.JitterStdSec = 0.002
	}
	if s.LossRate <= 0 {
		s.LossRate = 0.005
	}
	s.Stall = s.Stall.defaulted()
	return s
}

// Validate rejects malformed specs (unknown controller/workload names,
// inverted rate clamps, out-of-range loss).
func (s Spec) Validate() error {
	d := s.Defaulted()
	switch d.Controller {
	case ControllerGCC, ControllerBBR:
	default:
		return fmt.Errorf("transport: unknown controller %q", s.Controller)
	}
	switch d.Workload {
	case WorkloadVideo, WorkloadBulk, WorkloadWeb:
	default:
		return fmt.Errorf("transport: unknown workload %q", s.Workload)
	}
	if d.MinRateMbps > d.MaxRateMbps {
		return fmt.Errorf("transport: min rate %g > max rate %g", d.MinRateMbps, d.MaxRateMbps)
	}
	if s.LossRate < 0 || s.LossRate >= 1 {
		return fmt.Errorf("transport: loss rate %g outside [0,1)", s.LossRate)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"video_rate_mbps", s.VideoRateMbps}, {"start_rate_mbps", s.StartRateMbps},
		{"min_rate_mbps", s.MinRateMbps}, {"max_rate_mbps", s.MaxRateMbps},
		{"bandwidth_mhz", s.BandwidthMHz}, {"base_rtt_sec", s.BaseRTTSec},
		{"jitter_std_sec", s.JitterStdSec},
	} {
		if f.v < 0 {
			return fmt.Errorf("transport: negative %s %g", f.name, f.v)
		}
	}
	return nil
}

// Totals is one UE's aggregated transport outcome. Every field is an
// exact-round-trip JSON type, so totals ship losslessly over the
// cluster wire and merge byte-identically at any shard count.
type Totals struct {
	// Intervals counts link intervals stepped.
	Intervals int `json:"intervals"`
	// DeliveredMbit is the total payload delivered to the application.
	DeliveredMbit float64 `json:"delivered_mbit"`
	// GoodputMbps is DeliveredMbit over the simulated span.
	GoodputMbps float64 `json:"goodput_mbps"`
	// MeanRateMbps is the controller's mean target rate.
	MeanRateMbps float64 `json:"mean_rate_mbps"`
	// DownSec is total link-down time seen by the flow.
	DownSec float64 `json:"down_sec"`
	// Stalls / StallSec count RTO-extended link stalls (each down
	// window stalls until the first backed-off retransmission after
	// recovery).
	Stalls   int     `json:"stalls"`
	StallSec float64 `json:"stall_sec"`
	// RebufferSec / Rebuffers are video workload playback stalls.
	RebufferSec float64 `json:"rebuffer_sec,omitempty"`
	Rebuffers   int     `json:"rebuffers,omitempty"`
	// WebCompleted counts finished request/response cycles (web
	// workload only).
	WebCompleted int `json:"web_completed,omitempty"`
}

// capacityMbps maps serving-cell SNR to link capacity: a Shannon bound
// over the spec bandwidth with a 3 dB implementation margin.
func capacityMbps(snrDB, bandwidthMHz float64) float64 {
	if math.IsInf(snrDB, -1) || math.IsNaN(snrDB) {
		return 0
	}
	snrLin := math.Pow(10, (snrDB-3)/10)
	if snrLin <= 0 {
		return 0
	}
	return bandwidthMHz * math.Log2(1+snrLin)
}
