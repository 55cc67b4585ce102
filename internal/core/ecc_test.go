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
	ecc := eccentricities(disconnectedPair(), nil)
	for i, e := range ecc {
		if e != EccUnreachable {
			t.Fatalf("node %d: ecc %d, want EccUnreachable on a split fabric", i, e)
		}
	}
	// A connected fabric keeps real values: corners of a 4x4 mesh are 6
	// hops from the far corner, inner nodes 4.
	ecc = eccentricities(topology.Mesh(4, 4, cfg()), nil)
	for i, want := range map[int]int{0: 6, 3: 6, 5: 4, 10: 4, 15: 6} {
		if ecc[i] != want {
			t.Fatalf("mesh-4x4 node %d: ecc %d, want %d", i, ecc[i], want)
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
