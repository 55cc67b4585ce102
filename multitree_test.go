package multitree_test

import (
	"testing"
	"testing/quick"

	multitree "multitree"
)

func TestTopologyConstructors(t *testing.T) {
	cases := []struct {
		topo  *multitree.Topology
		nodes int
	}{
		{multitree.NewTorus(4, 4), 16},
		{multitree.NewTorus(8, 4), 32},
		{fatTree(t), 16},
	}
	for _, c := range cases {
		if c.topo.Nodes() != c.nodes {
			t.Errorf("%s: %d nodes, want %d", c.topo.Name(), c.topo.Nodes(), c.nodes)
		}
	}
}

func TestSupports(t *testing.T) {
	torus := multitree.NewTorus(4, 4)
	if !torus.Supports(multitree.Ring2D) {
		t.Error("2D-Ring should run on a torus")
	}
	if !torus.Supports(multitree.HDRM) { // 16 nodes: power of two
		t.Error("HDRM should run on 16 nodes")
	}
	for _, alg := range []multitree.Algorithm{multitree.Ring, multitree.DBTree, multitree.MultiTree} {
		if !torus.Supports(alg) {
			t.Errorf("%s unsupported on torus", alg)
		}
	}
}

func TestBuildAndVerifyAllAlgorithms(t *testing.T) {
	topo := multitree.NewTorus(4, 4)
	for _, alg := range multitree.Algorithms() {
		if !topo.Supports(alg) {
			continue
		}
		s, err := multitree.BuildSchedule(topo, alg, 64<<10)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if err := s.Verify(); err != nil {
			t.Errorf("%s: %v", alg, err)
		}
		if s.Algorithm() != alg && !(alg == multitree.MultiTree) {
			t.Errorf("algorithm name mismatch: %s vs %s", s.Algorithm(), alg)
		}
	}
}

func TestBuildScheduleErrors(t *testing.T) {
	topo := multitree.NewTorus(4, 4)
	if _, err := multitree.BuildSchedule(topo, "gossip", 1024); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := multitree.BuildSchedule(topo, multitree.Ring, 2); err == nil {
		t.Error("sub-element data size accepted")
	}
	if _, err := multitree.BuildSchedule(fatTree(t), multitree.Ring2D, 1024); err == nil {
		t.Error("2d-ring on fat-tree accepted")
	}
}

// TestVerifyCapsLargeSchedules: Verify on a multi-MiB schedule must not
// materialize the full vectors.
func TestVerifyCapsLargeSchedules(t *testing.T) {
	topo := multitree.NewTorus(4, 4)
	s, err := multitree.BuildSchedule(topo, multitree.MultiTree, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestMultiTreeWinsProperty: on random torus shapes at bandwidth-bound
// sizes, MultiTree's bandwidth is at least Ring's.
func TestMultiTreeWinsProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		nx := 2 + 2*(int(a)%3) // 2, 4, 6
		ny := 2 + 2*(int(b)%3)
		topo := multitree.NewTorus(nx, ny)
		mt, err := multitree.BuildSchedule(topo, multitree.MultiTree, 2<<20)
		if err != nil {
			return false
		}
		rg, err := multitree.BuildSchedule(topo, multitree.Ring, 2<<20)
		if err != nil {
			return false
		}
		mtRes, err := mt.Simulate(multitree.SimOptions{})
		if err != nil {
			return false
		}
		rgRes, err := rg.Simulate(multitree.SimOptions{})
		if err != nil {
			return false
		}
		return mtRes.BandwidthGBps >= rgRes.BandwidthGBps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestModelsAndDescribe(t *testing.T) {
	names := multitree.Models()
	if len(names) != 7 {
		t.Fatalf("%d models, want 7", len(names))
	}
	info, err := multitree.DescribeModel("Transformer")
	if err != nil {
		t.Fatal(err)
	}
	if info.Params < 30e6 || info.GradientBytes != 4*info.Params {
		t.Errorf("Transformer info %+v", info)
	}
	if _, err := multitree.DescribeModel("nope"); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestSimulateTraining(t *testing.T) {
	topo := multitree.NewTorus(4, 4)
	r, err := multitree.SimulateTraining(topo, multitree.MultiTree, "GoogLeNet", multitree.TrainingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalCycles != r.ForwardCycles+r.BackwardCycles+r.CommCycles {
		t.Errorf("non-overlapped accounting: %+v", r)
	}
	o, err := multitree.SimulateTraining(topo, multitree.MultiTree, "GoogLeNet",
		multitree.TrainingOptions{Overlapped: true})
	if err != nil {
		t.Fatal(err)
	}
	if o.TotalCycles > r.TotalCycles {
		t.Errorf("overlapped (%d) slower than sequential (%d)", o.TotalCycles, r.TotalCycles)
	}
	if o.OverlapCycles+o.ExposedCycles != o.CommCycles {
		t.Errorf("overlap accounting: %+v", o)
	}
}

func TestCustomTopologyAPI(t *testing.T) {
	b := multitree.NewCustomTopology("star", 4, 1)
	hub := b.Switch(0)
	for n := 0; n < 4; n++ {
		b.Connect(n, hub)
	}
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := multitree.BuildSchedule(topo, multitree.MultiTree, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	if !s.ContentionFree() {
		t.Error("star schedule contends")
	}
	// Disconnected custom topology errors.
	bad := multitree.NewCustomTopology("bad", 3, 0)
	bad.Connect(0, 1)
	if _, err := bad.Build(); err == nil {
		t.Error("disconnected topology built")
	}
}
