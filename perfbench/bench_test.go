package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"rem"
)

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric
// tables the binary reports from in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var bj struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var workloads []string
	for _, w := range bj.Workloads {
		workloads = append(workloads, w.Name)
	}
	if !reflect.DeepEqual(workloads, workloadNames) {
		t.Errorf("workloads %v, binary has %v", workloads, workloadNames)
	}
	same := func(kind string, got []entry, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, binary reports %d", kind, len(got), len(want))
		}
		for i := 0; i < len(got) && i < len(want); i++ {
			if w := want[i]; got[i] != (entry{w.name, w.unit, w.better}) {
				t.Errorf("%s[%d] = %+v, binary reports %+v", kind, i, got[i], w)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer())
}

func TestExperimentIDsMatchRegistry(t *testing.T) {
	var ids []string
	for _, e := range rem.Experiments() {
		ids = append(ids, e.ID)
	}
	if !reflect.DeepEqual(ids, experimentIDs) {
		t.Errorf("registry %v, benchmark lists %v", ids, experimentIDs)
	}
}

func TestSelfTimes(t *testing.T) {
	const s = int64(1e9)
	spans := []span{
		{Trace: "a", ID: 1, Name: "bench.x", Start: 0, End: 10 * s},
		// Two overlapping children cover [1, 6] of the root.
		{Trace: "a", ID: 2, Parent: 1, Name: "cluster.RunFleet", Start: 1 * s, End: 5 * s},
		{Trace: "a", ID: 3, Parent: 1, Name: "fleet.Finish", Start: 4 * s, End: 6 * s},
		// A grandchild covers half of span 2.
		{Trace: "a", ID: 4, Parent: 2, Name: "cluster.member.step", Start: 2 * s, End: 4 * s},
		// Same ID in another trace is a different span.
		{Trace: "b", ID: 2, Name: "fleet.StepEpoch", Start: 0, End: 1 * s},
	}
	got := selfTimes(spans)
	want := map[string]float64{"bench": 5, "cluster": 2 + 2, "fleet": 2 + 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.9, 3.7}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{4, 1, 3, 2}) {
		t.Error("quantile reordered its input")
	}
}
