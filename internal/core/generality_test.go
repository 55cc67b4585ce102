package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"multitree/internal/collective"
	"multitree/internal/network"
	"multitree/internal/topology"
)

// TestGeneralityNewFabrics: MultiTree schedules contention-free, correct
// all-reduce on 3D tori and dragonflies with no topology-specific code —
// the §VII generality claim stretched beyond the paper's evaluated set.
func TestGeneralityNewFabrics(t *testing.T) {
	for _, topo := range []*topology.Topology{
		topology.Torus3D(4, 4, 4, cfg()),
		topology.Mesh3D(2, 3, 4, cfg()),
		topology.Dragonfly(4, 4, 2, cfg()),
	} {
		trees, err := BuildTrees(topo, Options{})
		if err != nil {
			t.Fatalf("%s: %v", topo.Name(), err)
		}
		checkInvariants(t, topo, trees)
		s, err := collective.TreesToSchedule(Algorithm, topo, 700, trees)
		if err != nil {
			t.Fatal(err)
		}
		if err := collective.VerifyAllReduce(s, collective.RampInputs(topo.Nodes(), 700)); err != nil {
			t.Errorf("%s: %v", topo.Name(), err)
		}
	}
}

// TestMultiTreeBeatsRingOn3DTorus: the richer link set of a 3D torus (6
// links/node) widens MultiTree's advantage over ring all-reduce.
func TestMultiTreeBeatsRingOn3DTorus(t *testing.T) {
	topo := topology.Torus3D(4, 4, 4, cfg())
	elems := (4 << 20) / 4
	mt, err := Build(topo, elems, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mres, err := network.SimulateFluid(mt, network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Ring is NIC-pair-bound at ~8 GB/s; MultiTree should exceed 3x that
	// here (it reached 3.7x on the 4-link 2D torus).
	if bw := mres.BandwidthBytesPerCycle(4 << 20); bw < 24 {
		t.Errorf("multitree on torus3d = %.1f GB/s, want > 24", bw)
	}
}

// randomConnectedTopology builds a random direct network: a spanning tree
// plus extra random edges, deterministic per seed.
func randomConnectedTopology(seed int64, nodes int) *topology.Topology {
	rng := rand.New(rand.NewSource(seed))
	c := topology.NewCustom("rand", nodes, 0)
	type pair struct{ a, b int }
	have := map[pair]bool{}
	add := func(a, b int) {
		if a == b {
			return
		}
		if a > b {
			a, b = b, a
		}
		if have[pair{a, b}] {
			return
		}
		have[pair{a, b}] = true
		c.Link(a, b, cfg())
	}
	for v := 1; v < nodes; v++ {
		add(v, rng.Intn(v))
	}
	extra := nodes / 2
	for i := 0; i < extra; i++ {
		add(rng.Intn(nodes), rng.Intn(nodes))
	}
	topo, err := c.Build()
	if err != nil {
		panic(err)
	}
	return topo
}

// TestRandomTopologiesProperty: on arbitrary connected direct networks —
// the "general purpose cluster networks" of §VII-B — the construction
// terminates, keeps its invariants, stays contention-free, and the
// schedule all-reduces correctly.
func TestRandomTopologiesProperty(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		nodes := 3 + int(sz)%14
		topo := randomConnectedTopology(seed, nodes)
		trees, err := BuildTrees(topo, Options{})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for _, tr := range trees {
			if tr.Validate() != nil {
				return false
			}
		}
		s, err := collective.TreesToSchedule(Algorithm, topo, 333, trees)
		if err != nil {
			return false
		}
		if !collective.Analyze(s).ContentionFree() {
			return false
		}
		return collective.VerifyAllReduce(s, collective.RampInputs(nodes, 333)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestLinkFailureRebuild models the dynamic-systems case of §III-C1: a
// link fails, the runtime rebuilds the topology without it, and
// Algorithm 1 re-derives a correct contention-free schedule over the
// degraded fabric.
func TestLinkFailureRebuild(t *testing.T) {
	// A 4x4 mesh with one failed cable, rebuilt as a custom topology.
	nx, ny := 4, 4
	failA, failB := 5, 6 // interior horizontal cable
	c := topology.NewCustom("mesh-degraded", nx*ny, 0)
	id := func(x, y int) int { return y*nx + x }
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			if x+1 < nx && !(id(x, y) == failA && id(x+1, y) == failB) {
				c.Link(id(x, y), id(x+1, y), cfg())
			}
			if y+1 < ny {
				c.Link(id(x, y), id(x, y+1), cfg())
			}
		}
	}
	topo, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(topo, 640, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := collective.VerifyAllReduce(s, collective.RampInputs(topo.Nodes(), 640)); err != nil {
		t.Fatal(err)
	}
	if a := collective.Analyze(s); !a.ContentionFree() {
		t.Errorf("degraded-fabric schedule contends: %v", a)
	}
	// The failed link must not appear on any allocated path.
	for i := range s.Transfers {
		for _, l := range s.PathOf(i) {
			link := s.Topo.Link(l)
			if (link.Src == failA && link.Dst == failB) || (link.Src == failB && link.Dst == failA) {
				t.Fatalf("schedule uses the failed link %d<->%d", failA, failB)
			}
		}
	}
}

// TestNodeFailureSubset: a node fails entirely; the survivors re-form the
// collective via the subset path, routing around the dead node's links
// only if the topology still carries them (here we drop the node from
// membership while its router keeps forwarding — the §VII-B dynamic
// allocation story).
func TestNodeFailureSubset(t *testing.T) {
	topo := topology.Torus(4, 4, cfg())
	dead := topology.NodeID(5)
	var survivors []topology.NodeID
	for n := 0; n < topo.Nodes(); n++ {
		if topology.NodeID(n) != dead {
			survivors = append(survivors, topology.NodeID(n))
		}
	}
	s, err := BuildSubset(topo, survivors, 480, Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := collective.RampInputs(topo.Nodes(), 480)
	if err := VerifySubsetAllReduce(s, survivors, in); err != nil {
		t.Fatal(err)
	}
	for i := range s.Transfers {
		tr := &s.Transfers[i]
		if tr.Src == dead || tr.Dst == dead {
			t.Fatalf("dead node %d participates in transfer %d", dead, i)
		}
	}
}
