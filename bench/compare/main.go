// Command compare is the benchmark's A/B comparator. It reads the run
// records bench/run.sh -all writes, N files per side (A is the parent, B
// the change), and reports per (workload, metric): each side's median and
// quartiles, the fraction of pairs B wins (pairs share workload, trace mode
// and seed; ties count for neither), and a verdict against the bound
// BENCHMARK.json fixes:
//
//	regression  B's median is worse than A's by more than the bound
//	unresolved  A's own interquartile spread exceeds the bound, and not
//	            every B run beats every A run
//	gain        B wins at least 9 in 10 pairs and the medians differ by
//	            more than A's interquartile spread
//	same        otherwise
//
// Per-layer metrics have no bound and get no verdict. Any sim_digest
// difference between runs, or any incorrect run, is flagged. The exit
// status is 1 on a regression, a digest difference or an incorrect run.
//
//	compare -spec BENCHMARK.json -a 'ab/a-*.json' -b 'ab/b-*.json'
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"multitree/bench/stats"
)

// record is one process run as bench/run.sh -all records it.
type record struct {
	Workload  string `json:"workload"`
	Seed      int    `json:"seed"`
	Trace     int    `json:"trace"`
	SimDigest string `json:"sim_digest"`
	Result    struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"result"`
}

// metricSpec is one metric of BENCHMARK.json; Bound is 0 for per-layer
// metrics.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func main() {
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark definition with the metrics and bounds")
	aGlob := flag.String("a", "", "glob of the parent's result files")
	bGlob := flag.String("b", "", "glob of the change's result files")
	flag.Parse()
	if *aGlob == "" || *bGlob == "" || flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}
	var spec benchSpec
	if err := readJSON(*specPath, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	a, errA := readRecords(*aGlob)
	b, errB := readRecords(*bGlob)
	if errA != nil || errB != nil {
		fmt.Fprintln(os.Stderr, "compare:", errA, errB)
		os.Exit(2)
	}
	if !report(os.Stdout, spec, a, b) {
		os.Exit(1)
	}
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func readRecords(glob string) ([]record, error) {
	paths, err := filepath.Glob(glob)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no result files match %q", glob)
	}
	var out []record
	for _, p := range paths {
		var recs []record
		if err := readJSON(p, &recs); err != nil {
			return nil, err
		}
		out = append(out, recs...)
	}
	return out, nil
}

// pairKey identifies the runs of the two sides that form a pair.
type pairKey struct {
	workload string
	trace    int
	seed     int
}

// comparison is one (workload, metric) row.
type comparison struct {
	a, b       []float64
	wins, ties int
	pairs      int
	verdict    string
}

// compareMetric computes a row: a and b hold each side's value per pair
// key; better is "lower" or "higher"; bound 0 means no verdict.
func compareMetric(a, b map[pairKey]float64, better string, bound float64) comparison {
	var c comparison
	for k, va := range a {
		c.a = append(c.a, va)
		if vb, ok := b[k]; ok {
			c.pairs++
			switch {
			case va == vb:
				c.ties++
			case (vb < va) == (better == "lower"):
				c.wins++
			}
		}
	}
	for _, vb := range b {
		c.b = append(c.b, vb)
	}
	if bound > 0 {
		c.verdict = verdict(c.a, c.b, c.wins, c.pairs, better, bound)
	}
	return c
}

// verdict applies the regression rules to one metric.
func verdict(a, b []float64, wins, pairs int, better string, bound float64) string {
	if len(a) == 0 || len(b) == 0 {
		return "missing"
	}
	medA, medB := stats.Median(a), stats.Median(b)
	worse := (medB - medA) / math.Abs(medA) // share by which B is worse
	if better == "higher" {
		worse = -worse
	}
	spreadA := stats.Spread(a)
	switch {
	case spreadA > bound && !allBetter(a, b, better):
		return "unresolved"
	case worse > bound:
		return "regression"
	case pairs > 0 && float64(wins) >= 0.9*float64(pairs) && -worse > spreadA:
		return "gain"
	}
	return "same"
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(a, b []float64, better string) bool {
	for _, va := range a {
		for _, vb := range b {
			if (better == "lower" && vb >= va) || (better == "higher" && vb <= va) {
				return false
			}
		}
	}
	return true
}

// report prints the comparison table and the flags, and returns false on
// a regression, a digest difference or an incorrect run.
func report(w io.Writer, spec benchSpec, a, b []record) bool {
	ok := true
	for _, side := range []struct {
		name string
		recs []record
	}{{"A", a}, {"B", b}} {
		for _, r := range side.recs {
			if !r.Result.Correct {
				fmt.Fprintf(w, "FLAG %s run %s seed %d trace %d is incorrect\n", side.name, r.Workload, r.Seed, r.Trace)
				ok = false
			}
		}
	}
	digests := map[string]map[string]bool{}
	for _, r := range append(append([]record{}, a...), b...) {
		if digests[r.Workload] == nil {
			digests[r.Workload] = map[string]bool{}
		}
		digests[r.Workload][r.SimDigest] = true
	}
	for _, wl := range sortedKeys(digests) {
		if len(digests[wl]) > 1 {
			fmt.Fprintf(w, "FLAG %s sim_digest differs between runs: %v\n", wl, sortedKeys(digests[wl]))
			ok = false
		}
	}

	fmt.Fprintf(w, "%-18s %-36s %-6s %28s %28s %8s %s\n", "workload", "metric", "unit", "A median [q1 q3]", "B median [q1 q3]", "B wins", "verdict")
	metrics := append(append([]metricSpec{}, spec.EndToEnd...), spec.PerLayer...)
	for _, wl := range sortedKeys(digests) {
		for _, m := range metrics {
			va, vb := values(a, wl, m.Name), values(b, wl, m.Name)
			if len(va) == 0 && len(vb) == 0 {
				continue
			}
			c := compareMetric(va, vb, m.Better, m.Bound)
			if c.verdict == "regression" {
				ok = false
			}
			fmt.Fprintf(w, "%-18s %-36s %-6s %28s %28s %8s %s\n", wl, m.Name, m.Unit,
				quartiles(c.a), quartiles(c.b), fmt.Sprintf("%d/%d", c.wins, c.pairs), c.verdict)
		}
	}
	return ok
}

// values collects a metric of one workload by pair key.
func values(recs []record, workload, metric string) map[pairKey]float64 {
	out := map[pairKey]float64{}
	for _, r := range recs {
		if m, ok := r.Result.Metrics[metric]; ok && r.Workload == workload {
			out[pairKey{r.Workload, r.Trace, r.Seed}] = m.Value
		}
	}
	return out
}

func quartiles(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	q1, q2, q3 := stats.Quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g %.4g]", q2, q1, q3)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
