package experiments_test

import (
	"bytes"
	"runtime"
	"testing"

	"multitree/internal/algorithms"
	"multitree/internal/collective"
	"multitree/internal/experiments"
	"multitree/internal/topology"
	"multitree/internal/topospec"
)

func cfg() topology.LinkConfig { return topology.DefaultLinkConfig() }

func TestAlgorithmsPerTopology(t *testing.T) {
	names := func(topo *topology.Topology) []string {
		var out []string
		for _, a := range experiments.Algorithms(topo) {
			out = append(out, a.Name)
		}
		return out
	}
	torus := names(topology.Torus(4, 4, cfg()))
	if len(torus) != 5 { // ring, dbtree, 2d-ring, multitree, multitree-msg
		t.Errorf("torus algorithms = %v", torus)
	}
	bigraph := names(topology.BiGraph(4, 4, cfg()))
	found := false
	for _, n := range bigraph {
		if n == "hdrm" {
			found = true
		}
	}
	if !found {
		t.Errorf("bigraph algorithms missing hdrm: %v", bigraph)
	}
	fattree := names(topology.FatTree(4, 4, 4, cfg()))
	for _, n := range fattree {
		if n == "2d-ring" {
			t.Errorf("fat-tree offers 2d-ring: %v", fattree)
		}
	}
}

// TestFig9ShapeTorus regenerates a small Fig. 9a point set and asserts the
// paper's ordering: MultiTree > 2D-Ring > Ring > DBTree at a
// bandwidth-bound size on a Torus.
func TestFig9ShapeTorus(t *testing.T) {
	topo := topology.Torus(4, 4, cfg())
	points, err := experiments.Fig9(topo, []int64{4 << 20}, experiments.Fluid, algorithms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bw := map[string]float64{}
	for _, p := range points {
		bw[p.Algorithm] = p.BandwidthGBps
	}
	if !(bw["multitree"] > bw["2d-ring"] && bw["2d-ring"] > bw["ring"] && bw["ring"] > bw["dbtree"]) {
		t.Errorf("bandwidth ordering wrong: %v", bw)
	}
	if gain := bw["multitree-msg"] / bw["multitree"]; gain < 1.04 || gain > 1.08 {
		t.Errorf("message-based gain %.3f, want ~1.06", gain)
	}
}

// TestFig9RejectsEmptySweep: a -max below the first Fig. 9 size leaves
// nothing to sweep, which is an error rather than an empty table.
func TestFig9RejectsEmptySweep(t *testing.T) {
	sizes := experiments.Fig9Sizes(16 << 10)
	if len(sizes) != 0 {
		t.Fatalf("Fig9Sizes(16 KiB) = %v, want none", sizes)
	}
	if _, err := experiments.Fig9(topology.Torus(4, 4, cfg()), sizes, experiments.Fluid, algorithms.Options{}); err == nil {
		t.Fatal("Fig9 accepted an empty size list")
	}
}

func TestParseEngine(t *testing.T) {
	for _, tc := range []struct {
		name string
		want experiments.Engine
		ok   bool
	}{
		{"", experiments.Packet, true},
		{"packet", experiments.Packet, true},
		{"fluid", experiments.Fluid, true},
		{"fluidd", 0, false},
		{"Fluid", 0, false},
		{"bogus", 0, false},
	} {
		got, err := experiments.ParseEngine(tc.name)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v, ok=%v", tc.name, got, err, tc.want, tc.ok)
		}
	}
}

// TestFig10Normalization: the first Ring point is the normalization base
// and scaling is roughly linear in N for every algorithm.
func TestFig10Normalization(t *testing.T) {
	points, err := experiments.Fig10(topospec.TorusFor, []int{16, 64})
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]experiments.Fig10Point{}
	for _, p := range points {
		byKey[p.Algorithm+"@"+itoa(p.Nodes)] = p
	}
	if r16 := byKey["ring@16"]; r16.Normalized != 1.0 {
		t.Errorf("ring@16 normalized = %v, want 1", r16.Normalized)
	}
	// MULTITREE-MSG should be clearly fastest at 64 nodes (~3x over ring).
	r := byKey["ring@64"].Normalized
	m := byKey["multitree-msg@64"].Normalized
	if m >= r || r/m < 2 {
		t.Errorf("multitree-msg@64 = %.2f vs ring@64 = %.2f, want >=2x gap", m, r)
	}
}

func TestTable1Shapes(t *testing.T) {
	torus := topology.Torus(8, 8, cfg())
	rows, err := experiments.Table1([]*topology.Topology{torus}, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	get := func(alg string) experiments.Table1Row {
		for _, r := range rows {
			if r.Algorithm == alg {
				return r
			}
		}
		t.Fatalf("no row for %s", alg)
		return experiments.Table1Row{}
	}
	// Table I's qualitative rows, measured.
	if r := get("ring"); r.MaxLinkOverlap > 1 || r.BandwidthOverhead > 1.01 || r.Steps != 126 {
		t.Errorf("ring row: %+v", r)
	}
	if r := get("dbtree"); r.MaxLinkOverlap <= 1 {
		t.Errorf("dbtree should contend: %+v", r)
	}
	if r := get("2d-ring"); r.BandwidthOverhead < 1.5 {
		t.Errorf("2d-ring should be bandwidth sub-optimal: %+v", r)
	}
	if r := get("multitree"); r.MaxLinkOverlap > 1 || r.BandwidthOverhead > 1.01 || r.Steps >= 126 || r.MaxHops != 1 {
		t.Errorf("multitree row: %+v", r)
	}
}

func TestFig2Endpoints(t *testing.T) {
	pts := experiments.Fig2()
	if pts[0].PayloadBytes != 64 || pts[0].Overhead != 0.25 {
		t.Errorf("first point %+v, want 64B/25%%", pts[0])
	}
	last := pts[len(pts)-1]
	if last.PayloadBytes != 256 || last.Overhead != 0.0625 {
		t.Errorf("last point %+v, want 256B/6.25%%", last)
	}
}

// TestFig11Headline checks the paper's headline numbers hold in shape: on
// the 8x8 Torus, MULTITREE-MSG's all-reduce speedup over Ring averages
// at least 2x, and communication-bound workloads see the largest
// training-time reductions.
func TestFig11Headline(t *testing.T) {
	if testing.Short() {
		t.Skip("full training sweep")
	}
	topo, err := topospec.Parse("torus-8x8")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := experiments.Fig11(topo, false)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	var count int
	best := 0.0
	for _, r := range rows {
		if r.Algorithm != "multitree-msg" {
			continue
		}
		sum += r.AllReduceSpeedup
		count++
		if red := 1 - r.NormalizedTotal; red > best {
			best = red
		}
	}
	if avg := sum / float64(count); avg < 2.0 {
		t.Errorf("mean all-reduce speedup %.2f, want >= 2 (paper: 2.3)", avg)
	}
	if best < 0.5 {
		t.Errorf("best training-time reduction %.0f%%, want >= 50%% (paper: up to 81%%)", 100*best)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// TestFig9ParallelMatchesSerial: the sweep's pool at GOMAXPROCS=8
// returns the same points in the same order as at GOMAXPROCS=1 (run
// under -race in CI).
func TestFig9ParallelMatchesSerial(t *testing.T) {
	topo := topology.Torus(4, 4, cfg())
	sizes := []int64{32 << 10, 128 << 10}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial, err := experiments.Fig9(topo, sizes, experiments.Fluid, algorithms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(8)
	parallel, err := experiments.Fig9(topo, sizes, experiments.Fluid, algorithms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("serial %d points, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		a, b := serial[i], parallel[i]
		a.WallNanos, b.WallNanos = 0, 0 // host timing, not simulation output
		a.PlanNanos, b.PlanNanos = 0, 0
		if a != b {
			t.Errorf("point %d differs: %+v vs %+v", i, a, b)
		}
	}
}

// TestMeasureRejectsSubElement: a data size below one element is an
// error on the measurement path too, not a 0-element schedule's point.
func TestMeasureRejectsSubElement(t *testing.T) {
	topo := topology.Torus(4, 4, cfg())
	p, err := experiments.MeasureAllReduce(topo, experiments.AlgSpec{Name: "ring"}, 2, experiments.Fluid, algorithms.Options{})
	if err == nil {
		t.Fatalf("2-byte all-reduce accepted: %+v", p)
	}
}

// TestScheduleBuilderMatchesRegistry: the training builder's cached-tree
// path serves "multitree" and "multitree-msg" alike, and every layer size
// it lowers exports the same bytes as a fresh registry build.
func TestScheduleBuilderMatchesRegistry(t *testing.T) {
	topo := topology.Torus(4, 4, cfg())
	export := func(s *collective.Schedule) []byte {
		var b bytes.Buffer
		if err := collective.Export(&b, s); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	for _, name := range []string{"multitree", "multitree-msg", "ring"} {
		build := experiments.ScheduleBuilder(name)
		for _, elems := range []int{1, 1000, 65536} {
			got, err := build(topo, elems)
			if err != nil {
				t.Fatal(err)
			}
			want, err := algorithms.Build(topo, name, elems, algorithms.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(export(got), export(want)) {
				t.Errorf("%s at %d elems: builder and registry schedules differ", name, elems)
			}
		}
	}
}
