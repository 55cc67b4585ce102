package dbtree

import (
	"testing"
	"testing/quick"

	"multitree/internal/collective"
	"multitree/internal/topology"
)

func cfg() topology.LinkConfig { return topology.DefaultLinkConfig() }

// TestTwoTreeProperty: for even node counts, the in-order tree's leaves
// are even ranks and its mirror's leaves are odd ranks, so no rank is a
// leaf in both trees — the Sanders full-bandwidth property.
func TestTwoTreeProperty(t *testing.T) {
	for _, n := range []int{4, 8, 16, 64} {
		t1 := inorderTree(n)
		t2 := shift(t1)
		leaf := func(tr *tree, r int) bool { return tr.height[r] == 0 }
		for r := 0; r < n; r++ {
			if leaf(t1, r) && leaf(t2, r) {
				t.Errorf("n=%d: rank %d is a leaf in both trees", n, r)
			}
		}
	}
}

func TestTreeShape(t *testing.T) {
	tr := inorderTree(7)
	if tr.root != 3 {
		t.Errorf("root = %d, want 3", tr.root)
	}
	// Positions 1..7 with trailing-zero heights: leaves at even ranks.
	for r := 0; r < 7; r += 2 {
		if tr.height[r] != 0 {
			t.Errorf("rank %d height %d, want leaf", r, tr.height[r])
		}
	}
	// Logarithmic depth.
	big := inorderTree(64)
	for r := 0; r < 64; r++ {
		if big.depth[r] > 6 {
			t.Errorf("rank %d at depth %d in 64-rank tree", r, big.depth[r])
		}
	}
}

func TestShiftPreservesShape(t *testing.T) {
	t1 := inorderTree(8)
	t2 := shift(t1)
	if t2.root != (t1.root+1)%8 {
		t.Errorf("shift root = %d, want %d", t2.root, (t1.root+1)%8)
	}
	for r := 0; r < 8; r++ {
		if t1.depth[r] != t2.depth[(r+1)%8] {
			t.Errorf("depth mismatch at rank %d", r)
		}
	}
}

// TestScheduleHalvesData: tree 0 and tree 1 carry disjoint halves of the
// gradient covering the whole vector.
func TestScheduleHalvesData(t *testing.T) {
	topo := topology.Torus(4, 4, cfg())
	s, err := Build(topo, 1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	covered := 0
	for _, f := range s.Flows {
		covered += f.Len
	}
	if covered != 1000 {
		t.Errorf("flows cover %d elems, want 1000", covered)
	}
	if len(s.Flows) != 2*4 {
		t.Errorf("%d flows, want 8 (2 trees x 4 chunks)", len(s.Flows))
	}
}

// TestEvenOddInterleave: tree 0 communicates on odd steps, tree 1 on even
// steps (the Fig. 4b black/red schedule), so a node never serves both
// trees in the same step.
func TestEvenOddInterleave(t *testing.T) {
	topo := topology.Torus(4, 4, cfg())
	s, err := Build(topo, 1024, 2)
	if err != nil {
		t.Fatal(err)
	}
	chunks := len(s.Flows) / 2
	for i := range s.Transfers {
		tr := &s.Transfers[i]
		tree := int(tr.Flow) / chunks
		if int(tr.Step)%2 != 1-tree {
			t.Fatalf("tree %d transfer at step %d breaks the even/odd interleave", tree, tr.Step)
		}
	}
}

// TestMultiHopOnTorus: DBTree is topology-oblivious, so on a torus some
// logical edges must span multiple physical hops — the §VI-A congestion
// cause.
func TestMultiHopOnTorus(t *testing.T) {
	topo := topology.Torus(8, 8, cfg())
	s, err := Build(topo, 1<<14, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := collective.Analyze(s)
	if a.MaxHops < 2 {
		t.Errorf("max hops = %d; expected multi-hop logical edges", a.MaxHops)
	}
	if a.ContentionFree() {
		t.Error("dbtree reported contention-free on a torus")
	}
}

// TestCorrectnessProperty covers arbitrary node counts (odd included) and
// pipeline depths.
func TestCorrectnessProperty(t *testing.T) {
	f := func(a, b uint8, c uint8) bool {
		nx := 2 + int(a)%4
		ny := 2 + int(b)%4
		chunks := 1 + int(c)%7
		topo := topology.Mesh(nx, ny, cfg())
		elems := 501
		s, err := Build(topo, elems, chunks)
		if err != nil {
			return false
		}
		return collective.VerifyAllReduce(s, collective.RampInputs(topo.Nodes(), elems)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestChunkClamping: tiny gradients fall back to one chunk per tree.
func TestChunkClamping(t *testing.T) {
	topo := topology.Mesh(2, 2, cfg())
	s, err := Build(topo, 8, 0) // default chunks would over-split 8 elems
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Flows) != 2 {
		t.Errorf("%d flows for an 8-element gradient, want 2", len(s.Flows))
	}
	if err := collective.VerifyAllReduce(s, collective.RampInputs(4, 8)); err != nil {
		t.Fatal(err)
	}
}

func TestRejectsSingleNode(t *testing.T) {
	c := topology.NewCustom("solo", 1, 0)
	topo, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(topo, 100, 2); err == nil {
		t.Error("single node accepted")
	}
}

// TestTransfersSizedExactly: Build reserves exactly the transfers it
// emits, also when tiny gradients clamp the chunk count.
func TestTransfersSizedExactly(t *testing.T) {
	for _, c := range []struct{ nx, ny, elems, chunks int }{
		{2, 2, 8, 0}, {3, 5, 501, 3}, {4, 4, 1 << 14, 0}, {4, 4, 1, 4},
	} {
		s, err := Build(topology.Mesh(c.nx, c.ny, cfg()), c.elems, c.chunks)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Transfers) != cap(s.Transfers) {
			t.Errorf("%+v: %d transfers in a %d-transfer reservation", c, len(s.Transfers), cap(s.Transfers))
		}
	}
}
