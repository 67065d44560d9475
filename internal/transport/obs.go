package transport

import (
	"rem/internal/mobility"
	"rem/internal/obs"
)

// Observe publishes one UE's finished transport flow to its telemetry
// scope: the delivered/goodput/rebuffer metrics plus one
// transport_stall_open/close event pair per link stall. Nil-safe;
// stalls are already in start order because down windows close in
// time order.
func Observe(sc *obs.UEScope, tot Totals, stalls []Stall) {
	if sc == nil {
		return
	}
	sc.Shard.Counter(obs.MTPDelivered).Add(tot.DeliveredMbit)
	sc.Shard.Histogram(obs.MTPGoodput).Observe(tot.GoodputMbps)
	for i := 0; i < tot.Rebuffers; i++ {
		sc.Shard.Counter(obs.MTPRebuffers).Inc()
	}
	recordStalls(sc, stalls, obs.MTPStalls, obs.MTPStall, obs.EvTPStallOpen, obs.EvTPStallClose)
}

// ObserveTCPStalls replays a finished run's radio outages through the
// RTO model at the default timers and returns the stalls. When sc is
// non-nil it also publishes them: one tcp_stall_open/close event pair
// per stall plus the TCP stall counter and duration histogram.
func ObserveTCPStalls(sc *obs.UEScope, outages []mobility.Outage) []Stall {
	stalls := ReplayStalls(outages, StallConfig{})
	if sc != nil && len(stalls) > 0 {
		recordStalls(sc, stalls, obs.MTCPStalls, obs.MTCPStall, obs.EvTCPStallOpen, obs.EvTCPStallClose)
	}
	return stalls
}

// recordStalls counts each stall, observes its duration, and records
// an open event carrying the final RTO reached and a close event
// carrying the stall duration.
func recordStalls(sc *obs.UEScope, stalls []Stall, counter, hist, open, close string) {
	n := sc.Shard.Counter(counter)
	h := sc.Shard.Histogram(hist)
	for _, st := range stalls {
		n.Inc()
		h.Observe(st.Duration)
		sc.Rec.Record(obs.Event{T: st.Start, Kind: open, Value: st.FinalRTO})
		sc.Rec.Record(obs.Event{T: st.Start + st.Duration, Kind: close, Value: st.Duration})
	}
}
