package stats

import (
	"math"
	"testing"
)

// ramp returns 1..n in reverse, so the functions must sort.
func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i)
	}
	return xs
}

func TestTailLeavesTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		value float64
		q     float64
	}{
		{140, 130, 1 - 10.0/140}, // p93
		{100, 90, 0.9},           // p90
		{60, 50, 1 - 10.0/60},    // p83
		{11, 1, 1 - 10.0/11},
		{10, 10, 1}, // no percentile has ten beyond: the maximum
		{2, 2, 1},
	} {
		v, q := Tail(ramp(tc.n))
		if v != tc.value || math.Abs(q-tc.q) > 1e-12 {
			t.Errorf("Tail(1..%d) = %v at q=%v, want %v at q=%v", tc.n, v, q, tc.value, tc.q)
		}
		beyond := 0
		for _, x := range ramp(tc.n) {
			if x > v {
				beyond++
			}
		}
		if want := min(TailBeyond, tc.n-1); tc.n > TailBeyond && beyond != want {
			t.Errorf("Tail(1..%d) leaves %d samples beyond, want %d", tc.n, beyond, want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{ramp(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 4}, [3]float64{1.8125, 3.75, 7.75}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{2, 7, 7.5, 1, 3, 10, 4}, [3]float64{2, 4, 7.5}},
		{[]float64{4}, [3]float64{4, 4, 4}},
	} {
		q1, q2, q3 := Quartiles(tc.xs)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("Quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestGroupMedian(t *testing.T) {
	groups := map[string][]float64{
		"a": {1, 9, 2},     // median 2
		"b": {30, 10, 100}, // median 30
		"c": {5, 4},        // median 4.5
	}
	if m := GroupMedian(groups); m != 4.5 {
		t.Errorf("GroupMedian = %v, want 4.5", m)
	}
	if !math.IsNaN(GroupMedian(nil)) {
		t.Error("GroupMedian(nil) is not NaN")
	}
}

func TestMedianAndSpread(t *testing.T) {
	if m := Median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("Median = %v, want 2.5", m)
	}
	if s := Spread(ramp(10)); math.Abs(s-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("Spread = %v, want %v", s, (8.25-2.75)/5.5)
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median(nil) is not NaN")
	}
}
