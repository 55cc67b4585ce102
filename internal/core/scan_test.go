package core

import (
	"fmt"
	"reflect"
	"testing"

	"multitree/internal/faults"
	"multitree/internal/topology"
)

// diffScan grows trees on a switchless fabric twice: with full
// membership as nil, which takes the candidate-link scan, and as an
// all-true member mask, which takes the breadth-first search (memberSet
// normalizes that mask to nil only at the public API). The trees, every
// error and every counter but the scan-specific link counts must agree.
func diffScan(topo *topology.Topology, opts Options) error {
	scan, sc, serr := growTrees(topo, nil, opts)
	all := make([]bool, topo.Nodes())
	for i := range all {
		all[i] = true
	}
	ref, rc, rerr := growTrees(topo, all, opts)
	if fmt.Sprint(serr) != fmt.Sprint(rerr) {
		return fmt.Errorf("scan error %v, search error %v", serr, rerr)
	}
	// LinksScanned and LinkConflicts count scan candidates on one side
	// and BFS link visits on the other; everything else is the greedy's.
	sc.LinksScanned, sc.LinkConflicts = 0, 0
	rc.LinksScanned, rc.LinkConflicts = 0, 0
	if sc != rc {
		return fmt.Errorf("scan counters %+v, search counters %+v", sc, rc)
	}
	if len(scan) != len(ref) {
		return fmt.Errorf("scan grew %d trees, search %d", len(scan), len(ref))
	}
	for i := range scan {
		s, r := scan[i], ref[i]
		if s.Root != r.Root || !reflect.DeepEqual(s.Parent, r.Parent) ||
			!reflect.DeepEqual(s.AGStep, r.AGStep) || !reflect.DeepEqual(s.Path, r.Path) {
			return fmt.Errorf("tree %d (root %d) differs between scan and search", i, s.Root)
		}
	}
	return nil
}

// TestGrowthScanMatchesSearch: on switchless fabrics the candidate-link
// scan grows exactly the trees the breadth-first search grows, with the
// same search and miss counts, under both the first-parent and the
// shortest-path choice.
func TestGrowthScanMatchesSearch(t *testing.T) {
	degradedMesh := func() *topology.Topology {
		plan, err := faults.ParseSpec("link:3-4:down,link:8-14:down,node:20:down")
		if err != nil {
			t.Fatal(err)
		}
		d, err := faults.Apply(topology.Mesh(6, 6, cfg()), plan)
		if err != nil {
			t.Fatal(err)
		}
		return d.Topo
	}
	fabrics := []*topology.Topology{
		topology.Mesh(2, 2, cfg()),
		topology.Mesh(3, 5, cfg()),
		topology.Mesh(4, 4, cfg()),
		topology.Mesh(8, 8, cfg()),
		topology.Mesh(12, 12, cfg()),
		topology.Torus(4, 4, cfg()),
		topology.Torus(5, 7, cfg()),
		topology.Torus(8, 8, cfg()),
		topology.Torus3D(3, 3, 3, cfg()),
		topology.Torus3D(4, 4, 4, cfg()),
		topology.Mesh3D(2, 3, 4, cfg()),
		degradedMesh(),
		degradedTorus8x8(t),
	}
	for seed := int64(1); seed <= 30; seed++ {
		fabrics = append(fabrics, randomConnectedTopology(seed, 4+int(seed)%29))
	}
	for fi, topo := range fabrics {
		for _, opts := range []Options{{}, {ShortestPathFirst: true}} {
			if err := diffScan(topo, opts); err != nil {
				t.Errorf("fabric %d (%s, %d nodes) %+v: %v", fi, topo.Name(), topo.Nodes(), opts, err)
			}
		}
	}
}

// fuzzFabric builds a switchless custom fabric from data: the first byte
// picks 2..24 nodes, and each following byte pair adds a cable between
// two distinct nodes — full duplex, or one directed link when the pair's
// first byte has its top bit set. Repeated pairs give parallel links, so a node
// can be the destination of several of a parent's candidates. The fabric
// is not checked for reachability; a disconnected one must fail the same
// way on both searches.
func fuzzFabric(data []byte) *topology.Topology {
	n := 2 + int(data[0])%23
	c := topology.NewCustom("fuzz", n, 0)
	for i := 1; i+1 < len(data) && i < 1+2*96; i += 2 {
		a, b := int(data[i]&0x7f)%n, int(data[i+1])%n
		if a == b {
			continue
		}
		if data[i]&0x80 != 0 {
			c.DirectedLink(a, b, cfg())
		} else {
			c.Link(a, b, cfg())
		}
	}
	return c.BuildUnchecked()
}

// FuzzGrowthScan runs diffScan over fuzzer-built switchless fabrics.
// Seeds live in testdata/fuzz/FuzzGrowthScan.
func FuzzGrowthScan(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		topo := fuzzFabric(data)
		for _, opts := range []Options{{}, {ShortestPathFirst: true}} {
			if err := diffScan(topo, opts); err != nil {
				t.Fatalf("%+v: %v", opts, err)
			}
		}
	})
}
