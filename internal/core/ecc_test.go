package core

import (
	"strings"
	"testing"

	"multitree/internal/topology"
)

// disconnectedPair builds a direct fabric with two components: nodes
// 0-3 in a ring, nodes 4-5 linked to each other only.
func disconnectedPair() *topology.Topology {
	c := topology.NewCustom("split-6", 6, 0)
	c.Link(0, 1, cfg()).Link(1, 2, cfg()).Link(2, 3, cfg()).Link(3, 0, cfg())
	c.Link(4, 5, cfg())
	return c.BuildUnchecked()
}

// TestEccentricitiesUnreachableSentinel pins the degraded-topology
// contract: a source that cannot reach every node reports
// EccUnreachable instead of the silently-truncated max the old code
// produced, which under-scored exactly the roots that cannot grow a
// full tree.
func TestEccentricitiesUnreachableSentinel(t *testing.T) {
	ecc := eccentricities(disconnectedPair(), nil, 1)
	for i, e := range ecc {
		if e != EccUnreachable {
			t.Fatalf("node %d: ecc %d, want EccUnreachable on a split fabric", i, e)
		}
	}
	// A connected fabric keeps real values.
	for i, e := range eccentricities(topology.Mesh(4, 4, cfg()), nil, 1) {
		if e < 0 {
			t.Fatalf("node %d: sentinel on a connected mesh", i)
		}
	}
}

// TestGrowthRefusesDisconnected verifies both entry points into growth
// error out with a witness pair instead of growing partial trees: the
// eccentricity ordering up front, and the in-step stall diagnosis for
// the default order.
func TestGrowthRefusesDisconnected(t *testing.T) {
	topo := disconnectedPair()
	for _, opts := range []Options{{}, {Order: ByRemainingHeight}} {
		_, err := BuildTrees(topo, opts)
		if err == nil {
			t.Fatalf("order=%v: BuildTrees succeeded on a disconnected fabric", opts.Order)
		}
		if !strings.Contains(err.Error(), "cannot reach node") {
			t.Fatalf("order=%v: error %q does not name the unreachable pair", opts.Order, err)
		}
	}
}

// TestEccentricitiesIncrementalExact checks the incremental pass against
// the per-source BFS on every fabric class it claims: the distance
// update between adjacent sources must reproduce the exact
// eccentricities, not an approximation.
func TestEccentricitiesIncrementalExact(t *testing.T) {
	topos := []*topology.Topology{
		topology.Mesh(4, 4, cfg()),
		topology.Mesh(7, 3, cfg()),
		topology.Torus(8, 8, cfg()),
		topology.Torus(5, 4, cfg()),
	}
	for _, topo := range topos {
		got := eccentricitiesIncremental(topo)
		if got == nil {
			t.Fatalf("%s: incremental pass refused a direct symmetric fabric", topo.Name())
		}
		s := newEccScratch(topo, nil)
		for src := 0; src < topo.Nodes(); src++ {
			if want := s.from(src); got[src] != want {
				t.Fatalf("%s node %d: incremental ecc %d, want %d", topo.Name(), src, got[src], want)
			}
		}
	}
	// Indirect fabrics must fall back: the relay rule breaks the
	// triangle inequality the seeding relies on.
	if eccentricitiesIncremental(topology.BiGraph(4, 4, cfg())) != nil {
		t.Fatal("incremental pass accepted an indirect fabric")
	}
	// Asymmetric links must fall back too.
	a := topology.NewCustom("oneway-3", 3, 0)
	a.Link(0, 1, cfg()).Link(1, 2, cfg())
	a.DirectedLink(2, 0, cfg())
	asym, err := a.Build()
	if err != nil {
		t.Fatal(err)
	}
	if eccentricitiesIncremental(asym) != nil {
		t.Fatal("incremental pass accepted asymmetric links")
	}
}
