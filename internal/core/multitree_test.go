package core

import (
	"testing"
	"testing/quick"

	"multitree/internal/collective"
	"multitree/internal/topology"
)

func cfg() topology.LinkConfig { return topology.DefaultLinkConfig() }

func buildOrFail(t *testing.T, topo *topology.Topology, opts Options) []*collective.Tree {
	t.Helper()
	trees, err := BuildTrees(topo, opts)
	if err != nil {
		t.Fatalf("BuildTrees(%s): %v", topo.Name(), err)
	}
	return trees
}

// checkInvariants verifies the structural guarantees of Algorithm 1:
// one valid spanning tree per node, every edge a valid allocated path, and
// no two same-step edges sharing a link.
func checkInvariants(t *testing.T, topo *topology.Topology, trees []*collective.Tree) {
	t.Helper()
	n := topo.Nodes()
	if len(trees) != n {
		t.Fatalf("%s: %d trees, want %d", topo.Name(), len(trees), n)
	}
	type stepLink struct {
		step int
		link topology.LinkID
	}
	used := map[stepLink]int{}
	for i, tr := range trees {
		if tr.Root != topology.NodeID(i) {
			t.Fatalf("%s: tree %d rooted at %d", topo.Name(), i, tr.Root)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", topo.Name(), err)
		}
		for node := 0; node < n; node++ {
			id := topology.NodeID(node)
			if id == tr.Root {
				continue
			}
			path := tr.Path[id]
			if len(path) == 0 {
				t.Fatalf("%s: tree %d edge to %d has no allocated path", topo.Name(), i, id)
			}
			// Path runs parent -> child through switches only.
			cur := int(tr.Parent[id])
			for h, l := range path {
				link := topo.Link(l)
				if link.Src != cur {
					t.Fatalf("%s: tree %d path to %d discontiguous", topo.Name(), i, id)
				}
				if h < len(path)-1 && topo.IsNode(link.Dst) {
					t.Fatalf("%s: tree %d path to %d relays through node %d",
						topo.Name(), i, id, link.Dst)
				}
				cur = link.Dst
				used[stepLink{tr.AGStep[id], l}]++
			}
			if cur != int(id) {
				t.Fatalf("%s: tree %d path ends at %d, want %d", topo.Name(), i, cur, id)
			}
			if topo.Class() == topology.Direct && len(path) != 1 {
				t.Fatalf("%s: direct-network edge spans %d hops", topo.Name(), len(path))
			}
		}
	}
	for sl, count := range used {
		if count > 1 {
			t.Fatalf("%s: link %d allocated %d times at step %d",
				topo.Name(), sl.link, count, sl.step)
		}
	}
}

func TestInvariantsAcrossTopologies(t *testing.T) {
	for _, topo := range []*topology.Topology{
		topology.Mesh(2, 2, cfg()),
		topology.Mesh(4, 4, cfg()),
		topology.Mesh(5, 3, cfg()),
		topology.Torus(4, 4, cfg()),
		topology.Torus(8, 8, cfg()),
		topology.FatTree(4, 4, 4, cfg()),
		topology.FatTree(8, 8, 8, cfg()),
		topology.BiGraph(4, 4, cfg()),
		topology.BiGraph(8, 4, cfg()),
	} {
		checkInvariants(t, topo, buildOrFail(t, topo, Options{}))
	}
}

// TestFig3Example pins the §III-B walkthrough: on the 2x2 Mesh each tree
// reaches three nodes in two time steps, with two children attached at
// step 1 and one at step 2 — the shape of Fig. 3c-e.
func TestFig3Example(t *testing.T) {
	topo := topology.Mesh(2, 2, cfg())
	trees := buildOrFail(t, topo, Options{})
	for _, tr := range trees {
		if h := tr.Height(); h != 2 {
			t.Errorf("tree %d height %d, want 2", tr.Flow, h)
		}
		byStep := map[int]int{}
		for n, p := range tr.Parent {
			if p >= 0 && topology.NodeID(n) != tr.Root {
				byStep[tr.AGStep[n]]++
			}
		}
		if byStep[1] != 2 || byStep[2] != 1 {
			t.Errorf("tree %d adds %v per step, want {1:2, 2:1}", tr.Flow, byStep)
		}
	}
	// Root's two step-1 children must be its physical neighbors, with the
	// Y neighbor attached via the Y link (preference order).
	tr := trees[0]
	kids := tr.Children()[0]
	if len(kids) != 2 {
		t.Fatalf("root 0 has %d children, want 2", len(kids))
	}
}

// TestGridStepsNearDiameter: on a symmetric torus the all-gather phase
// completes within a small factor of the bandwidth lower bound
// |trees|*(N-1) edges / |links| steps.
func TestGridStepsNearDiameter(t *testing.T) {
	for _, tc := range []struct {
		topo     *topology.Topology
		maxSteps int
	}{
		{topology.Torus(4, 4, cfg()), 9},  // lower bound ceil(16*15/64)=4
		{topology.Torus(8, 8, cfg()), 20}, // lower bound ceil(64*63/256)=16
		{topology.Mesh(4, 4, cfg()), 14},  // fewer links, asymmetric
	} {
		trees := buildOrFail(t, tc.topo, Options{})
		tot := 0
		for _, tr := range trees {
			if h := tr.Height(); h > tot {
				tot = h
			}
		}
		if tot > tc.maxSteps {
			t.Errorf("%s: %d all-gather steps, want <= %d", tc.topo.Name(), tot, tc.maxSteps)
		}
	}
}

// TestBuildCorrectness is the end-to-end property: the lowered schedule
// all-reduces correctly on random-shaped grids (testing/quick supplies
// the shapes).
func TestBuildCorrectness(t *testing.T) {
	f := func(a, b uint8, wrap bool) bool {
		nx := 2 + int(a)%4
		ny := 2 + int(b)%4
		var topo *topology.Topology
		if wrap {
			topo = topology.Torus(nx, ny, cfg())
		} else {
			topo = topology.Mesh(nx, ny, cfg())
		}
		s, err := Build(topo, 257, Options{})
		if err != nil {
			return false
		}
		return collective.VerifyAllReduce(s, collective.RampInputs(topo.Nodes(), 257)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestBuildRejectsTinySystems(t *testing.T) {
	topo := topology.Mesh(2, 2, cfg())
	if _, err := Build(topo, 16, Options{}); err != nil {
		t.Fatalf("2x2 build failed: %v", err)
	}
	// One node: nothing to reduce.
	c := topology.NewCustom("solo", 1, 0)
	solo, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildTrees(solo, Options{}); err == nil {
		t.Error("single-node system accepted")
	}
}

// TestDeterminism: two builds of the same topology produce identical
// trees — required for the static schedule tables of §IV-A.
func TestDeterminism(t *testing.T) {
	topo := topology.Torus(4, 4, cfg())
	a := buildOrFail(t, topo, Options{})
	b := buildOrFail(t, topo, Options{})
	for i := range a {
		for n := range a[i].Parent {
			if a[i].Parent[n] != b[i].Parent[n] || a[i].AGStep[n] != b[i].AGStep[n] {
				t.Fatalf("tree %d differs between builds at node %d", i, n)
			}
		}
	}
}

// TestBalancedParticipation: every node is an internal or leaf node of
// every other tree (each node both roots one flow and serves all others),
// the full-bidirectional-bandwidth property of §VIII-A.
func TestBalancedParticipation(t *testing.T) {
	topo := topology.Torus(4, 4, cfg())
	trees := buildOrFail(t, topo, Options{})
	sends := make([]int, topo.Nodes())
	for _, tr := range trees {
		for n, p := range tr.Parent {
			if p >= 0 {
				sends[p]++ // parent sends to child during all-gather
				sends[n]++ // child sends to parent during reduce-scatter
			}
		}
	}
	min, max := sends[0], sends[0]
	for _, s := range sends {
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	// Total directed sends are 2*N*(N-1); perfect balance is 2*(N-1) per
	// node. Allow modest skew.
	if max > 3*min {
		t.Errorf("send load skew %d..%d too large", min, max)
	}
}
