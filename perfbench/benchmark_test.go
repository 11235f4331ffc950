package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesTheCode keeps BENCHMARK.json, which the
// benchmark's runner reads, in step with the metrics and workloads this
// program reports.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the code has %d", len(names), len(workloads))
	}
	e2e := newResult()
	for _, m := range spec.EndToEnd {
		e2e.set(m.Name, 1, m.Unit, "")
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if err := e2e.check(endToEndMetrics); err != nil {
		t.Errorf("end_to_end: %v", err)
	}
	layers := newResult()
	for _, m := range spec.PerLayer {
		layers.set(m.Name, 1, m.Unit, "")
	}
	if err := layers.check(perLayerMetrics); err != nil {
		t.Errorf("per_layer: %v", err)
	}
}
