package fleet

import (
	"fmt"

	"rem/internal/eval"
	"rem/internal/transport"
)

// TransportSummary is the fleet-wide transport-plane aggregate: per-UE
// totals folded in global UE order (fixed order, so the floating-point
// sums are byte-deterministic at any worker or shard count).
type TransportSummary struct {
	Controller      string  `json:"controller"`
	Workload        string  `json:"workload"`
	DeliveredMbit   float64 `json:"delivered_mbit"`
	MeanGoodputMbps float64 `json:"mean_goodput_mbps"`
	MeanRateMbps    float64 `json:"mean_rate_mbps"`
	DownSec         float64 `json:"down_sec"`
	Stalls          int     `json:"stalls"`
	StallSec        float64 `json:"stall_sec"`
	Rebuffers       int     `json:"rebuffers,omitempty"`
	RebufferSec     float64 `json:"rebuffer_sec,omitempty"`
	WebCompleted    int     `json:"web_completed,omitempty"`
}

// applyTransport folds per-UE transport totals (indexed by local UE,
// i.e. global id minus spec.UEOffset) into the summary — per-UE stats
// plus the fleet aggregate — and appends the transport table to the
// report. No-op when the plane is disarmed or totals are absent, so
// disarmed output keeps its pre-transport bytes. Called from foldResult.
func applyTransport(spec Spec, sum *Summary, rep *eval.Report, totals []transport.Totals) {
	if spec.Transport == nil || len(totals) == 0 {
		return
	}
	for j := range sum.PerUE {
		if i := sum.PerUE[j].UE - spec.UEOffset; i >= 0 && i < len(totals) {
			tt := totals[i]
			sum.PerUE[j].Transport = &tt
		}
	}
	tspec := spec.Transport.Defaulted()
	ts := &TransportSummary{Controller: tspec.Controller, Workload: tspec.Workload}
	var goodputSum, rateSum float64
	for _, t := range totals {
		ts.DeliveredMbit += t.DeliveredMbit
		goodputSum += t.GoodputMbps
		rateSum += t.MeanRateMbps
		ts.DownSec += t.DownSec
		ts.Stalls += t.Stalls
		ts.StallSec += t.StallSec
		ts.Rebuffers += t.Rebuffers
		ts.RebufferSec += t.RebufferSec
		ts.WebCompleted += t.WebCompleted
	}
	n := float64(len(totals))
	ts.MeanGoodputMbps = goodputSum / n
	ts.MeanRateMbps = rateSum / n
	sum.Transport = ts
	rep.Tables = append(rep.Tables, transportTable(ts))
}

// transportTable renders the aggregate as a report table in the same
// style as the fleet reliability table.
func transportTable(ts *TransportSummary) eval.Table {
	return eval.Table{
		Title:   "Transport plane",
		Columns: []string{"metric", "value"},
		Rows: [][]string{
			{"controller/workload", ts.Controller + "/" + ts.Workload},
			{"delivered", fmt.Sprintf("%.1f Mbit", ts.DeliveredMbit)},
			{"mean goodput", fmt.Sprintf("%.2f Mbps", ts.MeanGoodputMbps)},
			{"mean send rate", fmt.Sprintf("%.2f Mbps", ts.MeanRateMbps)},
			{"link-down time", fmt.Sprintf("%.1fs", ts.DownSec)},
			{"stalls", fmt.Sprintf("%d", ts.Stalls)},
			{"stall time", fmt.Sprintf("%.1fs", ts.StallSec)},
			{"rebuffers", fmt.Sprintf("%d", ts.Rebuffers)},
			{"rebuffer time", fmt.Sprintf("%.1fs", ts.RebufferSec)},
			{"web requests completed", fmt.Sprintf("%d", ts.WebCompleted)},
		},
	}
}
