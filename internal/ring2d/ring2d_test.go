package ring2d_test

import (
	"testing"
	"testing/quick"

	"multitree/internal/collective"
	"multitree/internal/ring2d"
	"multitree/internal/topology"
)

func cfg() topology.LinkConfig { return topology.DefaultLinkConfig() }

func TestRejectsNonGrid(t *testing.T) {
	topo := topology.FatTree(4, 4, 4, cfg())
	if _, err := ring2d.Build(topo, 100); err == nil {
		t.Error("fat-tree accepted by 2D-Ring")
	}
}

// TestStepsLow: 2D-Ring's step count is 2(nx-1)+2(ny-1), far below flat
// ring's 2(nx*ny-1) — its latency advantage.
func TestStepsLow(t *testing.T) {
	topo := topology.Torus(8, 8, cfg())
	s, err := ring2d.Build(topo, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2*(8-1) + 2*(8-1); s.Steps != want {
		t.Errorf("steps = %d, want %d", s.Steps, want)
	}
}

// TestVolumeNearDouble: the communicated volume approaches 2x the
// bandwidth-optimal amount (the paper's 2N(N-1) vs N^2-1 comparison).
func TestVolumeNearDouble(t *testing.T) {
	topo := topology.Torus(8, 8, cfg())
	s, err := ring2d.Build(topo, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	a := collective.Analyze(s)
	if ov := a.BandwidthOverhead(); ov < 1.6 || ov > 2.0 {
		t.Errorf("bandwidth overhead = %.2f, want ~1.8 (approaching 2)", ov)
	}
}

// TestQuartersUseAllDirections: phase-one transfers occupy all four link
// directions of an interior torus node.
func TestQuartersUseAllDirections(t *testing.T) {
	topo := topology.Torus(4, 4, cfg())
	s, err := ring2d.Build(topo, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	dirs := map[topology.LinkID]bool{}
	for i := range s.Transfers {
		tr := &s.Transfers[i]
		if tr.Step != 1 || tr.Src != 5 {
			continue
		}
		for _, l := range s.PathOf(i) {
			dirs[l] = true
		}
	}
	if len(dirs) != 4 {
		t.Errorf("node 5 uses %d link directions at step 1, want 4", len(dirs))
	}
}

// TestContentionFreeOnTorus: on a true torus the four quarters never share
// a link within a step.
func TestContentionFreeOnTorus(t *testing.T) {
	topo := topology.Torus(4, 4, cfg())
	s, err := ring2d.Build(topo, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	if a := collective.Analyze(s); !a.ContentionFree() {
		t.Errorf("2d-ring contended on torus: overlap %d", a.MaxLinkOverlap)
	}
}

// TestMeshWrapContends: on a mesh the logical wrap hop crosses the row and
// collides with the opposite-direction quarter — the §VI-A reason 2D-Ring
// loses to flat ring on large Meshes.
func TestMeshWrapContends(t *testing.T) {
	topo := topology.Mesh(4, 4, cfg())
	s, err := ring2d.Build(topo, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	if a := collective.Analyze(s); a.ContentionFree() {
		t.Error("mesh 2d-ring reported contention-free; wrap hops must contend")
	}
}

// TestCorrectnessProperty covers random grid shapes and sizes, including
// non-square grids.
func TestCorrectnessProperty(t *testing.T) {
	f := func(a, b uint8, e uint16, wrap bool) bool {
		nx := 2 + int(a)%4
		ny := 2 + int(b)%4
		elems := 16 + int(e)%2000
		var topo *topology.Topology
		if wrap {
			topo = topology.Torus(nx, ny, cfg())
		} else {
			topo = topology.Mesh(nx, ny, cfg())
		}
		s, err := ring2d.Build(topo, elems)
		if err != nil {
			return false
		}
		return collective.VerifyAllReduce(s, collective.RampInputs(topo.Nodes(), elems)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestTransfersSizedExactly: Build reserves exactly the transfers it
// emits, and no one-element Deps slice has spare capacity an append
// could write into a neighbour's dependency.
func TestTransfersSizedExactly(t *testing.T) {
	for _, topo := range []*topology.Topology{
		topology.Mesh(2, 2, cfg()), topology.Mesh(3, 5, cfg()), topology.Torus(4, 4, cfg()), topology.Torus(8, 2, cfg()),
	} {
		s, err := ring2d.Build(topo, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Transfers) != cap(s.Transfers) {
			t.Errorf("%s: %d transfers in a %d-transfer reservation", topo.Name(), len(s.Transfers), cap(s.Transfers))
		}
		// The dependency reservation Build makes: one per hop but a
		// chunk's first in its line, plus total/2 phase-chaining deps.
		nx, ny := topo.GridDims()
		total := 8 * nx * ny * (nx + ny - 2)
		if got, want := s.DepEdges(), total+total/2-8*nx*ny; got != want {
			t.Errorf("%s: %d dependencies, Build reserves %d", topo.Name(), got, want)
		}
	}
}
