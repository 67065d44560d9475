package fleet

import (
	"fmt"
	"sort"

	"rem/internal/mobility"
	"rem/internal/sim"
	"rem/internal/transport"
)

// ShardSlice is one shard's contribution to a merged fleet result: the
// raw per-UE mobility results for the contiguous global UE range
// starting at Offset, plus the shard engine's admission and cell
// tallies (Blocked, CellStats).
type ShardSlice struct {
	Offset  int
	Results []*mobility.Result
	Blocked int
	// Cells is the shard engine's dense per-cell table, indexed by cell
	// ID. Every shard shares one deployment, so tables must agree on
	// length and cell identity.
	Cells []CellStat
	// Transport is the shard's per-UE transport totals (local UE
	// order), required (one per Result) when the spec arms the
	// transport plane and ignored otherwise.
	Transport []transport.Totals
}

// MergeShards reduces per-shard raw results into the Result a
// single-process run of spec produces. Shards are reordered by Offset
// and must tile the spec's global range [spec.UEOffset,
// spec.UEOffset+spec.UEs) exactly. The reduction is the engine's
// own foldResult over the concatenated results in global UE order, so
// every floating-point fold runs in the single-process order and the
// merge is byte-identical, not merely statistically equivalent.
//
// peaks and finals are the coordinator-tracked global per-cell attach
// counts (dense by cell ID): the elementwise maximum over every epoch
// barrier, and the last barrier's counts. Shard-local peak/final
// values are discarded — a max of per-shard peaks is not the peak of
// the global sum.
func MergeShards(spec Spec, shards []ShardSlice, peaks, finals []int) (*Result, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	sorted := append([]ShardSlice(nil), shards...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Offset < sorted[b].Offset })

	results := make([]*mobility.Result, 0, spec.UEs)
	blocked := 0
	var cells []CellStat
	var tpTotals []transport.Totals
	for _, sh := range sorted {
		if next := spec.UEOffset + len(results); sh.Offset != next {
			return nil, fmt.Errorf("fleet: merge: shard ranges not contiguous at UE %d (offset %d)", next, sh.Offset)
		}
		if spec.Transport != nil {
			if len(sh.Transport) != len(sh.Results) {
				return nil, fmt.Errorf("fleet: merge: shard at offset %d carries %d transport totals for %d UEs", sh.Offset, len(sh.Transport), len(sh.Results))
			}
			tpTotals = append(tpTotals, sh.Transport...)
		}
		results = append(results, sh.Results...)
		blocked += sh.Blocked
		if cells == nil {
			cells = append(cells, sh.Cells...)
			continue
		}
		if len(sh.Cells) != len(cells) {
			return nil, fmt.Errorf("fleet: merge: cell table length %d, want %d", len(sh.Cells), len(cells))
		}
		for id, cs := range sh.Cells {
			if cs.Cell != cells[id].Cell || cs.Channel != cells[id].Channel {
				return nil, fmt.Errorf("fleet: merge: cell %d identity differs across shards", id)
			}
			cells[id].Attaches += cs.Attaches
			cells[id].HandoversIn += cs.HandoversIn
			cells[id].Failures += cs.Failures
			cells[id].Blocked += cs.Blocked
		}
	}
	if len(results) != spec.UEs {
		return nil, fmt.Errorf("fleet: merge: shards cover %d UEs, spec has %d", len(results), spec.UEs)
	}

	for id := range cells {
		cells[id].PeakAttached = 0
		if id < len(peaks) {
			cells[id].PeakAttached = peaks[id]
		}
	}
	return foldResult(spec, results, func(ue int) int64 { return sim.ReplicaSeed(spec.Seed, spec.UEOffset+ue) },
		blocked, cells, finals, tpTotals), nil
}
