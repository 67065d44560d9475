package transport

import (
	"math"
	"sort"

	"rem/internal/mobility"
)

// Stall is one RTO-extended link stall: the transport cannot deliver
// until the first exponentially backed-off retransmission after radio
// recovery, so the stall overshoots the outage by up to one RTO.
type Stall struct {
	Start    float64 `json:"start"`
	Duration float64 `json:"duration"`
	// FinalRTO is the backoff value reached when transfer resumed —
	// the "TCP RTO ← 6.28s" annotation of Fig. 9b.
	FinalRTO float64 `json:"final_rto"`
	// Retransmissions counts timer expirations during the stall.
	Retransmissions int `json:"retransmissions"`
}

// StallConfig holds the RTO recovery timer model.
type StallConfig struct {
	// BaseRTOSec is the retransmission timeout when the loss begins
	// (default 0.2).
	BaseRTOSec float64 `json:"base_rto_sec,omitempty"`
	// MaxRTOSec caps the exponential backoff (default 60, RFC 6298).
	MaxRTOSec float64 `json:"max_rto_sec,omitempty"`
}

func (c StallConfig) defaulted() StallConfig {
	if c.BaseRTOSec <= 0 {
		c.BaseRTOSec = 0.2
	}
	if c.MaxRTOSec <= 0 {
		c.MaxRTOSec = 60
	}
	if c.MaxRTOSec < c.BaseRTOSec {
		// A cap below the base would make the backoff loop shrink the
		// RTO on its first doubling; pin it to the base instead of
		// jumping to the default (a caller asking for a low cap wants a
		// low cap).
		c.MaxRTOSec = c.BaseRTOSec
	}
	return c
}

// StallForOutage computes the stall produced by one radio outage:
// retransmissions fire at exponentially backed-off times from the
// outage start; the first one after radio recovery succeeds and ends
// the stall (paper §7.1: "TCP stalling time is usually longer than the
// network failures because of its retransmission timeout").
func StallForOutage(o mobility.Outage, cfg StallConfig) Stall {
	cfg = cfg.defaulted()
	if o.Duration <= 0 {
		return Stall{Start: o.Start}
	}
	rto := cfg.BaseRTOSec
	elapsed := 0.0
	n := 0
	for {
		next := elapsed + rto
		if next >= o.Duration {
			return Stall{Start: o.Start, Duration: next, FinalRTO: rto, Retransmissions: n + 1}
		}
		elapsed = next
		n++
		rto = math.Min(rto*2, cfg.MaxRTOSec)
	}
}

// ReplayStalls converts a set of radio outages into stalls. Outages
// are processed in start order; overlapping outages merge.
func ReplayStalls(outages []mobility.Outage, cfg StallConfig) []Stall {
	cfg = cfg.defaulted()
	merged := mergeOutages(outages)
	if len(merged) == 0 {
		return nil
	}
	out := make([]Stall, 0, len(merged))
	for _, o := range merged {
		out = append(out, StallForOutage(o, cfg))
	}
	return out
}

func mergeOutages(outages []mobility.Outage) []mobility.Outage {
	if len(outages) == 0 {
		return nil
	}
	os := append([]mobility.Outage(nil), outages...)
	sort.Slice(os, func(i, j int) bool { return os[i].Start < os[j].Start })
	out := []mobility.Outage{os[0]}
	for _, o := range os[1:] {
		last := &out[len(out)-1]
		if o.Start <= last.Start+last.Duration {
			end := math.Max(last.Start+last.Duration, o.Start+o.Duration)
			last.Duration = end - last.Start
			continue
		}
		out = append(out, o)
	}
	return out
}
