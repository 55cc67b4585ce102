package main

import (
	"bytes"
	"strings"
	"testing"
)

// sides builds paired per-seed values for A and B.
func sides(a, b []float64) (map[pairKey]float64, map[pairKey]float64) {
	ma, mb := map[pairKey]float64{}, map[pairKey]float64{}
	for i, v := range a {
		ma[pairKey{"w", 0, i}] = v
	}
	for i, v := range b {
		mb[pairKey{"w", 0, i}] = v
	}
	return ma, mb
}

func TestVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, tc := range []struct {
		name   string
		b      []float64
		better string
		want   string
		wins   int
	}{
		{"gain: every pair faster", []float64{90, 91, 89, 90, 92, 88, 90, 91, 89, 90}, "lower", "gain", 10},
		{"gain on a higher-is-better metric", []float64{110, 111, 109, 110, 112, 108, 110, 111, 109, 110}, "higher", "gain", 10},
		{"regression past the bound", []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}, "lower", "regression", 0},
		{"within the bound", []float64{103, 104, 102, 103, 105, 101, 103, 104, 102, 103}, "lower", "same", 0},
		{"ties count for neither side", steady, "lower", "same", 0},
	} {
		a, b := sides(steady, tc.b)
		c := compareMetric(a, b, tc.better, 0.1)
		if c.verdict != tc.want || c.wins != tc.wins || c.pairs != 10 {
			t.Errorf("%s: verdict %q wins %d/%d, want %q wins %d/10", tc.name, c.verdict, c.wins, c.pairs, tc.want, tc.wins)
		}
	}
}

func TestUnresolvedWhenParentSpreadExceedsBound(t *testing.T) {
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	a, b := sides(noisy, []float64{95, 150, 85, 110, 100, 75, 120, 95, 105, 100})
	if c := compareMetric(a, b, "lower", 0.1); c.verdict != "unresolved" {
		t.Errorf("verdict %q, want unresolved", c.verdict)
	}
	// Unless every run of the change beats every run of the parent.
	a, b = sides(noisy, []float64{30, 31, 32, 33, 34, 35, 36, 37, 38, 39})
	if c := compareMetric(a, b, "lower", 0.1); c.verdict != "gain" {
		t.Errorf("all-better verdict %q, want gain", c.verdict)
	}
}

func TestPerLayerMetricsGetNoVerdict(t *testing.T) {
	a, b := sides([]float64{1, 2}, []float64{3, 4})
	if c := compareMetric(a, b, "lower", 0); c.verdict != "" {
		t.Errorf("verdict %q for an unbounded metric, want none", c.verdict)
	}
}

func TestReportFlagsDigestAndRegression(t *testing.T) {
	rec := func(seed int, digest string, v float64) record {
		var r record
		r.Workload, r.Seed, r.SimDigest = "w", seed, digest
		r.Result.Correct = true
		r.Result.Metrics = map[string]struct {
			Value float64 `json:"value"`
		}{"op_p50_ms": {Value: v}}
		return r
	}
	spec := benchSpec{EndToEnd: []metricSpec{{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}}}
	var a, b []record
	for i := 0; i < 10; i++ {
		a = append(a, rec(i, "d1", 100))
		b = append(b, rec(i, "d1", 100))
	}
	var out bytes.Buffer
	if !report(&out, spec, a, b) {
		t.Fatalf("identical sides flagged:\n%s", out.String())
	}
	b[3] = rec(3, "d2", 100)
	out.Reset()
	if report(&out, spec, a, b) || !strings.Contains(out.String(), "sim_digest differs") {
		t.Errorf("digest difference not flagged:\n%s", out.String())
	}
	for i := range b {
		b[i] = rec(i, "d1", 130)
	}
	out.Reset()
	if report(&out, spec, a, b) || !strings.Contains(out.String(), "regression") {
		t.Errorf("regression not flagged:\n%s", out.String())
	}
}
