package topology

import (
	"reflect"
	"testing"
	"testing/quick"
)

func cfg() LinkConfig { return DefaultLinkConfig() }

// checkPath verifies a routed path is contiguous from src to dst over
// existing links.
func checkPath(t *testing.T, topo *Topology, src, dst NodeID, path []LinkID) {
	t.Helper()
	if src == dst {
		if path != nil {
			t.Errorf("%s: route(%d,%d) should be nil", topo.Name(), src, dst)
		}
		return
	}
	if len(path) == 0 {
		t.Fatalf("%s: no route %d->%d", topo.Name(), src, dst)
	}
	cur := int(src)
	for _, id := range path {
		l := topo.Link(id)
		if l.Src != cur {
			t.Fatalf("%s: discontiguous path at link %d (%d->%d), cursor %d",
				topo.Name(), id, l.Src, l.Dst, cur)
		}
		cur = l.Dst
	}
	if cur != int(dst) {
		t.Fatalf("%s: path ends at %d, want %d", topo.Name(), cur, dst)
	}
}

func allTopologies() []*Topology {
	custom := NewCustom("tri", 3, 0)
	custom.Link(0, 1, cfg()).Link(1, 2, cfg()).Link(2, 0, cfg())
	tri, err := custom.Build()
	if err != nil {
		panic(err)
	}
	return []*Topology{
		Mesh(2, 2, cfg()),
		Mesh(4, 4, cfg()),
		Mesh(3, 5, cfg()),
		Torus(4, 4, cfg()),
		Torus(8, 4, cfg()),
		FatTree(4, 4, 4, cfg()),
		FatTree(8, 8, 8, cfg()),
		BiGraph(4, 4, cfg()),
		BiGraph(8, 4, cfg()),
		tri,
	}
}

// TestRoutesAreValid checks every node pair on every topology.
func TestRoutesAreValid(t *testing.T) {
	for _, topo := range allTopologies() {
		for s := 0; s < topo.Nodes(); s++ {
			for d := 0; d < topo.Nodes(); d++ {
				checkPath(t, topo, NodeID(s), NodeID(d), topo.Route(NodeID(s), NodeID(d)))
			}
		}
	}
}

// TestRoutesAvoidNodeRelay checks that no route passes through a third end
// node (accelerators do not forward traffic).
func TestRoutesAvoidNodeRelay(t *testing.T) {
	for _, topo := range allTopologies() {
		if topo.Class() != Indirect {
			continue
		}
		for s := 0; s < topo.Nodes(); s++ {
			for d := 0; d < topo.Nodes(); d++ {
				path := topo.Route(NodeID(s), NodeID(d))
				for i, id := range path {
					v := topo.Link(id).Dst
					if i < len(path)-1 && topo.IsNode(v) {
						t.Fatalf("%s: route %d->%d relays through node %d", topo.Name(), s, d, v)
					}
				}
			}
		}
	}
}

// TestTorusShortestPaths checks dimension-order routing takes the shorter
// wrap direction: no hop count exceeds nx/2 + ny/2.
func TestTorusShortestPaths(t *testing.T) {
	topo := Torus(8, 8, cfg())
	if d := topo.Diameter(); d != 8 {
		t.Errorf("torus-8x8 diameter = %d, want 8", d)
	}
	topo = Torus(4, 4, cfg())
	if d := topo.Diameter(); d != 4 {
		t.Errorf("torus-4x4 diameter = %d, want 4", d)
	}
}

func TestMeshDiameter(t *testing.T) {
	if d := Mesh(4, 4, cfg()).Diameter(); d != 6 {
		t.Errorf("mesh-4x4 diameter = %d, want 6", d)
	}
}

// TestGridProperties is a property test over random grid sizes.
func TestGridProperties(t *testing.T) {
	f := func(a, b uint8, wrap bool) bool {
		nx := 2 + int(a)%6
		ny := 2 + int(b)%6
		var topo *Topology
		if wrap {
			topo = Torus(nx, ny, cfg())
		} else {
			topo = Mesh(nx, ny, cfg())
		}
		if topo.Nodes() != nx*ny || topo.Switches() != 0 {
			return false
		}
		// Snake order visits each node once, adjacent consecutive.
		order := topo.RingOrder()
		seen := map[NodeID]bool{}
		for i, n := range order {
			if seen[n] {
				return false
			}
			seen[n] = true
			if i > 0 {
				if hops := len(topo.Route(order[i-1], n)); hops != 1 {
					return false
				}
			}
		}
		// Y-first adjacency preference: the first out-link of an interior
		// node moves in Y.
		if nx >= 3 && ny >= 3 {
			center := NodeID((ny/2)*nx + nx/2)
			first := topo.Link(topo.Out(int(center))[0])
			if first.Dst%nx != int(center)%nx {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestReverseLinkProperties: reversing twice is identity; parallel links
// reverse to distinct links.
func TestReverseLinkProperties(t *testing.T) {
	for _, topo := range allTopologies() {
		for _, l := range topo.Links() {
			r := topo.Link(topo.ReverseLink(l))
			if r.Src != l.Dst || r.Dst != l.Src {
				t.Fatalf("%s: reverse of %d is not opposite", topo.Name(), l.ID)
			}
			if rr := topo.ReverseLink(r); rr != l.ID {
				t.Fatalf("%s: double reverse of %d gives %d", topo.Name(), l.ID, rr)
			}
		}
	}
	// Multigraph trunk: two parallel links get two distinct reverses.
	c := NewCustom("trunk", 2, 0)
	c.Link(0, 1, cfg()).Link(0, 1, cfg())
	topo, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	var fwd []Link
	for _, l := range topo.Links() {
		if l.Src == 0 {
			fwd = append(fwd, l)
		}
	}
	if len(fwd) != 2 {
		t.Fatalf("trunk has %d forward links, want 2", len(fwd))
	}
	if topo.ReverseLink(fwd[0]) == topo.ReverseLink(fwd[1]) {
		t.Error("parallel links share a reverse link")
	}
}

func TestFatTreeStructure(t *testing.T) {
	topo := FatTree(4, 4, 4, cfg())
	if topo.Nodes() != 16 || topo.Switches() != 8 {
		t.Fatalf("fattree(4,4,4): %d nodes %d switches", topo.Nodes(), topo.Switches())
	}
	// Same-leaf routes stay within the leaf: 2 links.
	if hops := len(topo.Route(0, 1)); hops != 2 {
		t.Errorf("same-leaf route has %d hops, want 2", hops)
	}
	// Cross-leaf routes go node-leaf-spine-leaf-node: 4 links.
	if hops := len(topo.Route(0, 15)); hops != 4 {
		t.Errorf("cross-leaf route has %d hops, want 4", hops)
	}
}

func TestBiGraphStructure(t *testing.T) {
	topo := BiGraph(4, 4, cfg())
	if topo.Nodes() != 32 || topo.Switches() != 8 {
		t.Fatalf("bigraph(4,4): %d nodes %d switches", topo.Nodes(), topo.Switches())
	}
	// Opposite-layer nodes: node-switch-switch-node = 3 links.
	if hops := len(topo.Route(0, 1)); hops != 3 {
		t.Errorf("cross-layer route has %d hops, want 3", hops)
	}
	// Same-switch nodes: 2 links through the shared switch.
	if hops := len(topo.Route(0, 2)); hops != 2 {
		t.Errorf("same-switch route has %d hops, want 2", hops)
	}
}

func TestCustomBuilderErrors(t *testing.T) {
	c := NewCustom("broken", 3, 0)
	c.Link(0, 1, cfg())
	if _, err := c.Build(); err == nil {
		t.Error("disconnected topology built without error")
	}
	// Build names the first unreachable (s, d) pair in source-major
	// order. Direct: node 0 reaches everything over a one-way link, but
	// nothing reaches node 0.
	direct := NewCustom("oneway", 4, 0)
	direct.Link(1, 2, cfg()).Link(2, 3, cfg()).DirectedLink(0, 1, cfg())
	// Switch fabric: node 2 hangs off node 1, and end nodes do not relay,
	// so only node 1 reaches it.
	sw := NewCustom("relay", 4, 1)
	s0 := sw.SwitchVertex(0)
	sw.Link(0, s0, cfg()).Link(1, s0, cfg()).Link(3, s0, cfg()).Link(2, 1, cfg())
	for _, tc := range []struct {
		c    *CustomBuilder
		want string
	}{
		{direct, "topology oneway: node 1 cannot reach node 0"},
		{sw, "topology relay: node 0 cannot reach node 2"},
	} {
		if _, err := tc.c.Build(); err == nil || err.Error() != tc.want {
			t.Errorf("Build error %v, want %q", err, tc.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("self-link did not panic")
		}
	}()
	NewCustom("self", 2, 0).Link(1, 1, cfg())
}

// TestHopDistances checks the one breadth-first search on a small switch
// fabric whose node 2 hangs off node 1: only node 1 may relay to it, so
// every other source sees -1 there, and the same shape built as a direct
// fabric (vertex 4 a node router) reaches everything.
func TestHopDistances(t *testing.T) {
	build := func(switches int) *Topology {
		c := NewCustom("relay", 5-switches, switches)
		hub := 4
		c.Link(0, hub, cfg()).Link(1, hub, cfg()).Link(3, hub, cfg()).Link(2, 1, cfg())
		return c.BuildUnchecked()
	}
	sw, direct := build(1), build(0)
	for _, tc := range []struct {
		topo *Topology
		src  int
		want []int32
	}{
		{sw, 0, []int32{0, 2, -1, 2, 1}},
		{sw, 1, []int32{2, 0, 1, 2, 1}},
		{sw, 2, []int32{-1, 1, 0, -1, -1}},
		{sw, 4, []int32{1, 1, -1, 1, 0}},
		{direct, 2, []int32{3, 1, 0, 3, 2}},
		{direct, 0, []int32{0, 2, 3, 2, 1}},
	} {
		dist := make([]int32, tc.topo.Vertices())
		var queue []int32
		for range 2 { // a reused queue gives the same answer
			queue = tc.topo.HopDistances(tc.src, dist, queue)
			if !reflect.DeepEqual(dist, tc.want) {
				t.Fatalf("%s from %d: %v, want %v", tc.topo.Class(), tc.src, dist, tc.want)
			}
		}
	}
}

func TestPathLatency(t *testing.T) {
	topo := Mesh(4, 4, cfg())
	path := topo.Route(0, 3) // 3 hops along the top row
	if got := topo.PathLatency(path); got != 450 {
		t.Errorf("PathLatency = %d, want 450", got)
	}
}

func TestVertexName(t *testing.T) {
	topo := FatTree(2, 2, 2, cfg())
	if topo.VertexName(0) != "n0" {
		t.Errorf("VertexName(0) = %s", topo.VertexName(0))
	}
	if topo.VertexName(topo.SwitchVertex(1)) != "s1" {
		t.Errorf("switch name = %s", topo.VertexName(topo.SwitchVertex(1)))
	}
}
