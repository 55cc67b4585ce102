package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestWorkloadsEmitBenchmarkMetrics runs every workload at toy scale —
// torus-4x4 and mesh-8x8, one pass untraced and two traced — and checks
// each emits every metric BENCHMARK.json names, with its unit, correct
// outputs, and one sim_digest across both runs.
func TestWorkloadsEmitBenchmarkMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	checkDefs(t, "end_to_end", spec.EndToEnd, endToEnd)
	checkDefs(t, "per_layer", spec.PerLayer, perLayer)

	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			if _, ok := lookupWorkload(w.Name); !ok {
				t.Fatalf("BENCHMARK.json workload %q is not implemented", w.Name)
			}
			var digests []string
			for _, traced := range []bool{false, true} {
				rep, err := run(config{workload: w.Name, seed: 7, seconds: 0, trace: traced, env: env{toy: true, tmpDir: t.TempDir()}})
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d: %v", traced, rep.Correct, rep.Attempted, rep.Failed, rep.errs)
				}
				want := spec.EndToEnd
				if traced {
					want = spec.PerLayer
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics, want %d", traced, len(rep.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := rep.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("trace=%v: metric %s = %+v, want unit %q", traced, m.Name, got, m.Unit)
					}
				}
				if !traced {
					for _, m := range want {
						if rep.Metrics[m.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, rep.Metrics[m.Name].Value)
						}
					}
				}
				digests = append(digests, rep.simDigest)
			}
			if digests[0] != digests[1] {
				t.Errorf("sim_digest %s untraced, %s traced", digests[0], digests[1])
			}
		})
	}
}

func checkDefs(t *testing.T, what string, spec []struct{ Name, Unit string }, defs []metricDef) {
	t.Helper()
	if len(spec) != len(defs) {
		t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", what, len(spec), len(defs))
		return
	}
	for i, d := range defs {
		if spec[i].Name != d.name || spec[i].Unit != d.unit {
			t.Errorf("%s[%d]: BENCHMARK.json has %s %s, the benchmark %s %s", what, i, spec[i].Name, spec[i].Unit, d.name, d.unit)
		}
	}
}
