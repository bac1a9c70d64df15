package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the
// workloads and metrics (with their units) this program reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var bj struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		what string
		got  []named
		want []metricDef
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if len(tc.got) != len(tc.want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program reports %d", tc.what, len(tc.got), len(tc.want))
		}
		for i, m := range tc.want {
			if tc.got[i] != (named{m.name, m.unit}) {
				t.Errorf("%s[%d]: BENCHMARK.json has %v, the program reports %s in %s", tc.what, i, tc.got[i], m.name, m.unit)
			}
		}
	}
	if len(bj.Workloads) != len(plans) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bj.Workloads), len(plans))
	}
	for _, w := range bj.Workloads {
		if _, ok := plans[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no plan", w.Name)
		}
	}
}

// TestDeterministicOutputs runs every workload twice on one seed, at a
// short length, and requires every output check to pass and every
// deterministic output (model and state digests, sim, speculation and
// stream counts) to repeat exactly.
func TestDeterministicOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole pipeline four times")
	}
	for w := range plans {
		var first *result
		for i := 0; i < 2; i++ {
			o := options{workload: w, seed: 7, seconds: 3, limit: 250 * time.Millisecond, outDir: t.TempDir()}
			o.workDir = o.outDir
			r, err := run(context.Background(), o)
			if err != nil {
				t.Fatalf("%s run %d: %v", w, i, err)
			}
			if r.failed != 0 {
				t.Fatalf("%s run %d: %d of %d operations failed: %v", w, i, r.failed, r.attempted, r.failures)
			}
			for _, m := range endToEnd {
				if r.values[m.name] == 0 {
					t.Errorf("%s run %d: %s is 0", w, i, m.name)
				}
			}
			if first == nil {
				first = r
				continue
			}
			for k, v := range first.determ {
				if r.determ[k] != v {
					t.Errorf("%s: %s differs between runs of one seed:\n  %s\n  %s", w, k, v, r.determ[k])
				}
			}
		}
	}
}
