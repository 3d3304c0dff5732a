package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"

	"sci/internal/transport"
)

// TestBenchmarkJSONMatchesOutput keeps BENCHMARK.json and the program in
// step: every metric the file lists is printed with the unit it states,
// and nothing else is.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no builder", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program builds %d", len(spec.Workloads), len(workloads))
	}

	pr := &pacedResult{lat: newHist()}
	e2e := endToEnd(pr, []float64{1}, []float64{1}, 1)
	got := make(map[string]string, len(e2e))
	for k, m := range e2e {
		got[k] = m.Unit
	}
	compare(t, "end_to_end", spec.EndToEnd, got)

	tr := newTracer()
	r := &rig{net: newNetWrap(transport.NewMemory(transport.MemoryConfig{}), tr)}
	defer func() { _ = r.net.Close() }()
	got = make(map[string]string)
	for k := range perLayer(r, tr, pr, pr, counters{}, counters{}) {
		got[k] = layerUnit(k)
	}
	compare(t, "per_layer", spec.PerLayer, got)
}

func compare(t *testing.T, section string, listed []struct{ Name, Unit string }, printed map[string]string) {
	t.Helper()
	seen := make(map[string]bool)
	for _, m := range listed {
		seen[m.Name] = true
		unit, ok := printed[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s is listed but not printed", section, m.Name)
		case unit != m.Unit:
			t.Errorf("%s: %s is printed in %q, listed in %q", section, m.Name, unit, m.Unit)
		}
	}
	var extra []string
	for name := range printed {
		if !seen[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		t.Errorf("%s: printed but not listed: %v", section, extra)
	}
}
