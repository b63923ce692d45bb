package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatches keeps BENCHMARK.json and metricDefs in step:
// same names, units and order in each set.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var got []metricDef
	for _, m := range b.EndToEnd {
		got = append(got, metricDef{m.Name, m.Unit, false})
	}
	for _, m := range b.PerLayer {
		got = append(got, metricDef{m.Name, m.Unit, true})
	}
	if len(got) != len(metricDefs) {
		t.Fatalf("BENCHMARK.json lists %d metrics, metricDefs %d", len(got), len(metricDefs))
	}
	for i := range got {
		if got[i] != metricDefs[i] {
			t.Errorf("metric %d: BENCHMARK.json %+v, metricDefs %+v", i, got[i], metricDefs[i])
		}
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if want := []string{"train", "serve-mix"}; len(names) != len(want) || names[0] != want[0] || names[1] != want[1] {
		t.Errorf("workloads %v, want %v", names, want)
	}
}

func TestResultForReportsEverySet(t *testing.T) {
	o := newOutcome()
	o.attempted = 1
	for _, d := range metricDefs {
		if !d.layer {
			o.metrics[d.name] = 1
		}
	}
	for _, traced := range []bool{false, true} {
		r, err := resultFor(o, traced)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range metricDefs {
			if _, ok := r.Metrics[d.name]; ok != (d.layer == traced) {
				t.Errorf("traced=%v: %s present=%v", traced, d.name, ok)
			}
		}
	}
	delete(o.metrics, "setup_s")
	if _, err := resultFor(o, false); err == nil {
		t.Error("missing end-to-end metric accepted")
	}
}
