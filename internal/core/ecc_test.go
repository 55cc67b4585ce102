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

// disconnectedSwitches builds a switch fabric with two components: two
// unconnected switches with three nodes on each.
func disconnectedSwitches() *topology.Topology {
	c := topology.NewCustom("split-switches", 6, 2)
	for n := 0; n < 6; n++ {
		c.Link(n, c.SwitchVertex(n/3), cfg())
	}
	return c.BuildUnchecked()
}

// TestGrowthRefusesDisconnected verifies both entry points into growth
// error out with a witness pair instead of growing partial trees, on a
// direct fabric (the candidate-link scan) and on a switch fabric (the
// breadth-first search, where end nodes do not relay).
func TestGrowthRefusesDisconnected(t *testing.T) {
	for _, topo := range []*topology.Topology{disconnectedPair(), disconnectedSwitches()} {
		opts := DefaultOptions(topo)
		if _, err := BuildTrees(topo, opts); err == nil || !strings.Contains(err.Error(), "cannot reach node") {
			t.Errorf("%s: BuildTrees error %v does not name the unreachable pair", topo.Name(), err)
		}
		if _, err := Build(topo, 256, opts); err == nil || !strings.Contains(err.Error(), "cannot reach node") {
			t.Errorf("%s: Build error %v does not name the unreachable pair", topo.Name(), err)
		}
	}
}
