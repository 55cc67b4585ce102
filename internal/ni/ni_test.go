package ni_test

import (
	"strings"
	"testing"

	"multitree/internal/collective"
	"multitree/internal/core"
	"multitree/internal/ni"
	"multitree/internal/topology"
)

// compile grows the trees with the paper's literal first-parent
// allocation, lowers them at 1024 elements and compiles the tables.
func compile(t *testing.T, topo *topology.Topology) *ni.Tables {
	t.Helper()
	trees, err := core.BuildTrees(topo, core.Options{})
	if err != nil {
		t.Fatalf("BuildTrees(%s): %v", topo.Name(), err)
	}
	return compileTrees(t, topo, trees, 1024)
}

// compileTrees lowers trees to a schedule of elems elements and compiles
// its tables.
func compileTrees(t *testing.T, topo *topology.Topology, trees []*collective.Tree, elems int) *ni.Tables {
	t.Helper()
	s, err := collective.TreesToSchedule(core.Algorithm, topo, elems, trees)
	if err != nil {
		t.Fatalf("TreesToSchedule(%s): %v", topo.Name(), err)
	}
	tables, err := ni.CompileSchedule(s)
	if err != nil {
		t.Fatalf("CompileSchedule(%s): %v", topo.Name(), err)
	}
	return tables
}

// TestTablesDriveCorrectAllReduce runs the Fig. 6 state machine over the
// compiled tables on every topology class and checks that tables alone
// produce a complete reduction at every node.
func TestTablesDriveCorrectAllReduce(t *testing.T) {
	cfg := topology.DefaultLinkConfig()
	for _, topo := range []*topology.Topology{
		topology.Mesh(2, 2, cfg),
		topology.Mesh(4, 4, cfg),
		topology.Torus(4, 4, cfg),
		topology.Torus(4, 8, cfg),
		topology.FatTree(4, 4, 4, cfg),
		topology.BiGraph(4, 4, cfg),
	} {
		tables := compile(t, topo)
		m := ni.NewMachine(tables, topo.Nodes())
		if _, err := m.Run(); err != nil {
			t.Errorf("%s: %v", topo.Name(), err)
		}
	}
}

// TestTableStructure checks the Fig. 5 invariants on the 2x2 Mesh example:
// every node has one Reduce entry per foreign tree and each tree's root
// has Gather entries covering all other nodes.
func TestTableStructure(t *testing.T) {
	topo := topology.Mesh(2, 2, topology.DefaultLinkConfig())
	tables := compile(t, topo)
	if tables.Steps < 2 {
		t.Fatalf("2x2 mesh should need at least 2 steps, got %d", tables.Steps)
	}
	for node, tab := range tables.PerNode {
		reduces := map[int]bool{}
		for _, e := range tab.Entries {
			if e.Op == collective.Reduce {
				reduces[e.FlowID] = true
				if e.Parent == ni.Nil {
					t.Errorf("node %d: reduce entry without parent", node)
				}
			}
			if e.Op != collective.NOP && (e.Step < 1 || e.Step > 2*tables.Steps) {
				t.Errorf("node %d: entry step %d out of range", node, e.Step)
			}
		}
		if len(reduces) != topo.Nodes()-1 {
			t.Errorf("node %d: %d reduce flows, want %d", node, len(reduces), topo.Nodes()-1)
		}
		if reduces[node] {
			t.Errorf("node %d: has a reduce entry for its own tree", node)
		}
	}
}

// TestBind checks the DMA descriptors the compiler binds from the
// schedule's flow segments.
func TestBind(t *testing.T) {
	topo := topology.Torus(4, 4, topology.DefaultLinkConfig())
	trees, err := core.BuildTrees(topo, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const elems = 1003
	tables := compileTrees(t, topo, trees, elems)
	covered := 0
	seen := map[int]collective.Range{}
	for _, e := range tables.PerNode[0].Entries {
		if e.Op == collective.NOP {
			continue
		}
		r, ok := seen[e.FlowID]
		if !ok {
			seen[e.FlowID] = collective.Range{Off: e.StartAddr, Len: e.Size}
			covered += e.Size
		} else if r.Off != e.StartAddr || r.Len != e.Size {
			t.Errorf("flow %d bound inconsistently", e.FlowID)
		}
	}
	// Node 0 participates in all 16 flows (root of one, member of others).
	if len(seen) != topo.Nodes() {
		t.Errorf("node 0 touches %d flows, want %d", len(seen), topo.Nodes())
	}
	if covered != elems {
		t.Errorf("flows cover %d elems, want %d", covered, elems)
	}
}

// TestHardwareOverhead pins the §V-A estimate: for a 64-node system each
// entry is about 200 bits and the table about 3.2 KB.
func TestHardwareOverhead(t *testing.T) {
	bits := ni.EntryBits(64)
	if bits < 150 || bits > 220 {
		t.Errorf("EntryBits(64) = %d, want roughly 200", bits)
	}
	bytes := ni.TableBytes(64)
	if bytes < 2400 || bytes > 3600 {
		t.Errorf("TableBytes(64) = %d, want about 3200", bytes)
	}
}

// TestTableString spot-checks the Fig. 5 rendering.
func TestTableString(t *testing.T) {
	topo := topology.Mesh(2, 2, topology.DefaultLinkConfig())
	tables := compile(t, topo)
	s := tables.PerNode[0].String()
	for _, want := range []string{"Accelerator 0", "Reduce", "Gather", "Step"} {
		if !strings.Contains(s, want) {
			t.Errorf("table rendering missing %q:\n%s", want, s)
		}
	}
}

// TestWideDependencyChaining exercises the chained-entry path: with the
// paper's literal first-parent allocation on a fat tree, roots collect
// many children per tree, overflowing the 4-slot Children field into
// chained Reduce entries; the machine must still complete.
func TestWideDependencyChaining(t *testing.T) {
	topo := topology.FatTree(4, 4, 4, topology.DefaultLinkConfig())
	trees, err := core.BuildTrees(topo, core.Options{}) // first-parent order
	if err != nil {
		t.Fatal(err)
	}
	maxKids := 0
	for _, tr := range trees {
		for _, kids := range tr.Children() {
			if len(kids) > maxKids {
				maxKids = len(kids)
			}
		}
	}
	if maxKids <= ni.MaxChildren {
		t.Skipf("trees never exceed %d children (max %d); chaining not exercised", ni.MaxChildren, maxKids)
	}
	tables := compileTrees(t, topo, trees, 1024)
	m := ni.NewMachine(tables, topo.Nodes())
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestCompileShortestPathTrees covers the default indirect-network
// configuration end to end.
func TestCompileShortestPathTrees(t *testing.T) {
	for _, topo := range []*topology.Topology{
		topology.FatTree(4, 4, 4, topology.DefaultLinkConfig()),
		topology.BiGraph(4, 4, topology.DefaultLinkConfig()),
	} {
		trees, err := core.BuildTrees(topo, core.DefaultOptions(topo))
		if err != nil {
			t.Fatal(err)
		}
		tables := compileTrees(t, topo, trees, 1024)
		m := ni.NewMachine(tables, topo.Nodes())
		if _, err := m.Run(); err != nil {
			t.Errorf("%s: %v", topo.Name(), err)
		}
	}
}
