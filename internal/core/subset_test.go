package core

import (
	"strings"
	"testing"

	"multitree/internal/collective"
	"multitree/internal/obs"
	"multitree/internal/topology"
)

// TestSubsetAllReduceCorrect: an all-reduce over half the torus reaches
// exactly the members and leaves bystanders untouched.
func TestSubsetAllReduceCorrect(t *testing.T) {
	topo := topology.Torus(4, 4, cfg())
	// Every other node participates (a checkerboard of the 2D grid, the
	// kind of slice hybrid parallelism produces).
	var members []topology.NodeID
	for n := 0; n < topo.Nodes(); n += 2 {
		members = append(members, topology.NodeID(n))
	}
	s, err := BuildSubset(topo, members, 640, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Flows) != len(members) {
		t.Errorf("%d flows, want %d", len(s.Flows), len(members))
	}
	in := collective.RampInputs(topo.Nodes(), 640)
	if err := VerifySubsetAllReduce(s, members, in); err != nil {
		t.Fatal(err)
	}
}

// TestSubsetContentionFree: the per-step allocation discipline holds for
// subsets too.
func TestSubsetContentionFree(t *testing.T) {
	topo := topology.Torus(4, 4, cfg())
	members := []topology.NodeID{0, 3, 5, 10, 12, 15}
	s, err := BuildSubset(topo, members, 4096, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a := collective.Analyze(s); !a.ContentionFree() {
		t.Errorf("subset schedule contends: %v", a)
	}
}

// TestSubsetOnIndirect: members spread across switches of a fat tree.
func TestSubsetOnIndirect(t *testing.T) {
	topo := topology.FatTree(4, 4, 4, cfg())
	members := []topology.NodeID{1, 2, 6, 9, 13, 14}
	s, err := BuildSubset(topo, members, 999, Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := collective.RampInputs(topo.Nodes(), 999)
	if err := VerifySubsetAllReduce(s, members, in); err != nil {
		t.Fatal(err)
	}
}

// TestSubsetThroughBystanders: two members at opposite corners of a mesh
// must connect through non-member routers.
func TestSubsetThroughBystanders(t *testing.T) {
	topo := topology.Mesh(4, 4, cfg())
	members := []topology.NodeID{0, 15}
	s, err := BuildSubset(topo, members, 100, Options{})
	if err != nil {
		t.Fatal(err)
	}
	maxHops := 0
	for i := range s.Transfers {
		if h := len(s.PathOf(i)); h > maxHops {
			maxHops = h
		}
	}
	if maxHops < 6 {
		t.Errorf("corner-to-corner path spans %d links, want 6", maxHops)
	}
	in := collective.RampInputs(topo.Nodes(), 100)
	if err := VerifySubsetAllReduce(s, members, in); err != nil {
		t.Fatal(err)
	}
}

func TestSubsetErrors(t *testing.T) {
	topo := topology.Torus(4, 4, cfg())
	if _, err := BuildSubset(topo, []topology.NodeID{3}, 100, Options{}); err == nil {
		t.Error("single-member subset accepted")
	}
	if _, err := BuildSubset(topo, []topology.NodeID{1, 99}, 100, Options{}); err == nil {
		t.Error("out-of-range member accepted")
	}
	// Duplicates collapse.
	if _, err := BuildSubset(topo, []topology.NodeID{1, 1, 1}, 100, Options{}); err == nil {
		t.Error("duplicate single member accepted")
	}
}

// TestSubsetFullMembershipDelegates: passing every node gives the standard
// build.
func TestSubsetFullMembershipDelegates(t *testing.T) {
	topo := topology.Torus(4, 4, cfg())
	var all []topology.NodeID
	for n := 0; n < topo.Nodes(); n++ {
		all = append(all, topology.NodeID(n))
	}
	trees, err := subsetTrees(topo, all, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != topo.Nodes() || trees[0].Members != nil {
		t.Errorf("full membership did not delegate to the standard path")
	}
}

// TestSubsetHonorsOptions: subset trees grow in the same loop as the full
// set, so every construction option applies — the trees are rooted at the
// members in ascending order, and an observer sees the growth phase
// count one tree per member.
func TestSubsetHonorsOptions(t *testing.T) {
	topo := topology.Torus(4, 4, cfg())
	members := []topology.NodeID{15, 0, 3, 5, 10, 12} // any order
	trees, err := subsetTrees(topo, members, Options{})
	if err != nil {
		t.Fatal(err)
	}
	roots := []topology.NodeID{0, 3, 5, 10, 12, 15}
	if len(trees) != len(roots) {
		t.Fatalf("grew %d trees, want %d", len(trees), len(roots))
	}
	for i, tr := range trees {
		if tr.Root != roots[i] {
			t.Errorf("tree %d rooted at %d, want %d", i, tr.Root, roots[i])
		}
	}
	p := obs.NewPlanProfile()
	s, err := BuildSubset(topo, members, 600, Options{Observer: p})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySubsetAllReduce(s, members, collective.RampInputs(topo.Nodes(), 600)); err != nil {
		t.Fatal(err)
	}
	var grown obs.PlanCounters
	for _, ph := range p.Phases() {
		if ph.Phase == obs.PhaseTreeGrowth {
			grown = ph.Counters
		}
	}
	if grown.TreesGrown != 6 || grown.NodesAttached != 6*5 {
		t.Errorf("growth counters %+v, want 6 trees of 6 members", grown)
	}
}

// TestSubsetAutoOnSwitchFabric: Auto picks between the two allocation
// strategies for subsets as it does for the full set — the subset growth
// keeps the variant with fewer steps.
func TestSubsetAutoOnSwitchFabric(t *testing.T) {
	topo := topology.BiGraph(4, 4, cfg())
	var members []topology.NodeID
	for n := 0; n < topo.Nodes(); n += 3 {
		members = append(members, topology.NodeID(n))
	}
	first, err := subsetTrees(topo, members, Options{})
	if err != nil {
		t.Fatal(err)
	}
	shortest, err := subsetTrees(topo, members, Options{ShortestPathFirst: true})
	if err != nil {
		t.Fatal(err)
	}
	auto, err := subsetTrees(topo, members, Options{Auto: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := min(maxHeight(first), maxHeight(shortest)); maxHeight(auto) != want {
		t.Errorf("Auto subset trees take %d steps, want %d", maxHeight(auto), want)
	}
	s, err := BuildSubset(topo, members, 777, DefaultOptions(topo))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySubsetAllReduce(s, members, collective.RampInputs(topo.Nodes(), 777)); err != nil {
		t.Fatal(err)
	}
}

// TestSubsetUnreachableMember: on a split fabric a subset confined to one
// component builds, and a subset spanning both names the member it
// cannot reach.
func TestSubsetUnreachableMember(t *testing.T) {
	topo := disconnectedPair() // ring 0-3, pair 4-5
	if _, err := subsetTrees(topo, []topology.NodeID{0, 2}, Options{}); err != nil {
		t.Errorf("subset inside one component: %v", err)
	}
	_, err := subsetTrees(topo, []topology.NodeID{0, 1, 4}, Options{})
	if err == nil || !strings.Contains(err.Error(), "cannot reach node 4") {
		t.Errorf("error %v does not name member 4", err)
	}
}

// subsetTrees grows the subset trees BuildSubset lowers.
func subsetTrees(topo *topology.Topology, members []topology.NodeID, opts Options) ([]*collective.Tree, error) {
	set, err := memberSet(topo, members)
	if err != nil {
		return nil, err
	}
	return buildTrees(topo, set, opts)
}
