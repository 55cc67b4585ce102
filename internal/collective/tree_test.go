package collective

import (
	"strings"
	"testing"

	"multitree/internal/topology"
)

// chainTree builds a unary tree root -> 1 -> 2 -> 3 on the 2x2 mesh.
func chainTree() *Tree {
	tr := NewTree(0, 0, 4)
	tr.SetEdge(0, 1, 1)
	tr.SetEdge(1, 3, 2)
	tr.SetEdge(3, 2, 3)
	return tr
}

func TestTreeValidateAccepts(t *testing.T) {
	if err := chainTree().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTreeValidateRejectsDisconnected(t *testing.T) {
	tr := NewTree(0, 0, 4)
	tr.SetEdge(0, 1, 1)
	if err := tr.Validate(); err == nil {
		t.Error("tree missing nodes validated")
	}
}

func TestTreeValidateRejectsNonMonotoneSteps(t *testing.T) {
	tr := NewTree(0, 0, 3)
	tr.SetEdge(0, 1, 2)
	tr.SetEdge(1, 2, 1) // child attaches before its parent
	if err := tr.Validate(); err == nil {
		t.Error("non-monotone steps validated")
	}
}

func TestTreeValidateRejectsCycle(t *testing.T) {
	tr := NewTree(0, 0, 3)
	tr.SetEdge(0, 1, 1)
	tr.SetEdge(2, 2, 2) // self-parent cycle (never reaches root)
	if err := tr.Validate(); err == nil {
		t.Error("cycle validated")
	}
}

func TestTreeChildrenSorted(t *testing.T) {
	tr := NewTree(0, 0, 4)
	tr.SetEdge(0, 3, 2)
	tr.SetEdge(0, 1, 1)
	tr.SetEdge(0, 2, 1)
	kids := tr.Children()[0]
	if len(kids) != 3 || kids[0] != 1 || kids[1] != 2 || kids[2] != 3 {
		t.Errorf("children order = %v, want step-then-id order [1 2 3]", kids)
	}
	if tr.Height() != 2 {
		t.Errorf("height = %d, want 2", tr.Height())
	}
}

func TestTreeString(t *testing.T) {
	s := chainTree().String()
	for _, want := range []string{"tree 0 root n0", "t1: n0->n1", "t3: n3->n2"} {
		if !strings.Contains(s, want) {
			t.Errorf("tree rendering missing %q: %s", want, s)
		}
	}
}

// TestTreesToScheduleStructure lowers one chain tree and checks phases,
// steps and dependencies.
func TestTreesToScheduleStructure(t *testing.T) {
	topo := topology.Mesh(2, 2, topology.DefaultLinkConfig())
	s, err := TreesToSchedule("unit", topo, 400, []*Tree{chainTree()})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// 3 reduce + 3 gather transfers; reduce steps 1..3, gather 4..6.
	if len(s.Transfers) != 6 || s.Steps != 6 {
		t.Fatalf("%d transfers %d steps, want 6 and 6", len(s.Transfers), s.Steps)
	}
	var reduceSteps, gatherSteps []int32
	for i := range s.Transfers {
		tr := &s.Transfers[i]
		if tr.Op == Reduce {
			reduceSteps = append(reduceSteps, tr.Step)
			// Reduce direction is child -> parent: deepest node 2 sends
			// first.
			if tr.Step == 1 && tr.Src != 2 {
				t.Errorf("first reduce from node %d, want 2", tr.Src)
			}
		} else {
			gatherSteps = append(gatherSteps, tr.Step)
		}
	}
	for _, st := range reduceSteps {
		if st < 1 || st > 3 {
			t.Errorf("reduce step %d out of phase", st)
		}
	}
	for _, st := range gatherSteps {
		if st < 4 || st > 6 {
			t.Errorf("gather step %d out of phase", st)
		}
	}
	// Semantics: all-reduce for flow 0's segment only. With one tree the
	// whole vector is flow 0, so this is a full all-reduce.
	if err := VerifyAllReduce(s, RampInputs(4, 400)); err != nil {
		t.Fatal(err)
	}
}

// TestTreesToSchedulePinnedPaths checks that reduce transfers use the
// reversed allocated path.
func TestTreesToSchedulePinnedPaths(t *testing.T) {
	topo := topology.FatTree(2, 2, 2, topology.DefaultLinkConfig())
	tr := NewTree(0, 0, 4)
	tr.SetEdge(0, 1, 1)
	tr.SetEdge(0, 2, 2)
	tr.SetEdge(2, 3, 3)
	tr.Path[1] = topo.Route(0, 1)
	tr.Path[2] = topo.Route(0, 2)
	tr.Path[3] = topo.Route(2, 3)
	s, err := TreesToSchedule("unit", topo, 100, []*Tree{tr})
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.Transfers {
		tf := &s.Transfers[i]
		if len(s.Path(i)) == 0 {
			t.Fatalf("transfer %d lost its pinned path", i)
		}
		cur := int(tf.Src)
		for _, id := range s.Path(i) {
			l := topo.Link(id)
			if l.Src != cur {
				t.Fatalf("transfer %d path discontiguous", i)
			}
			cur = l.Dst
		}
		if cur != int(tf.Dst) {
			t.Fatalf("transfer %d path ends at %d, want %d", i, cur, tf.Dst)
		}
	}
}

func TestTreesToScheduleRejectsBadTree(t *testing.T) {
	topo := topology.Mesh(2, 2, topology.DefaultLinkConfig())
	bad := NewTree(0, 0, 4)
	if _, err := TreesToSchedule("unit", topo, 100, []*Tree{bad}); err == nil {
		t.Error("disconnected tree lowered without error")
	}
}
