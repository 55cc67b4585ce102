package ni_test

import (
	"bytes"
	"strings"
	"testing"

	"multitree/internal/algorithms"
	"multitree/internal/collective"
	"multitree/internal/core"
	"multitree/internal/hdrm"
	"multitree/internal/ni"
	"multitree/internal/ring"
	"multitree/internal/topology"
	"multitree/internal/topospec"
)

// TestCompileScheduleImported: an IR file that crossed the export/import
// boundary still compiles to runnable tables — the end-to-end NI path for
// external schedules.
func TestCompileScheduleImported(t *testing.T) {
	topo := topology.Mesh(4, 4, topology.DefaultLinkConfig())
	s, err := core.Build(topo, 640, core.DefaultOptions(topo))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := collective.Export(&buf, s); err != nil {
		t.Fatal(err)
	}
	imp, err := collective.Import(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := ni.CompileSchedule(imp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ni.NewMachine(tables, len(imp.Flows)).Run(); err != nil {
		t.Fatal(err)
	}
}

// TestCompileScheduleRejectsRing: non-tree schedules get a clear error.
func TestCompileScheduleRejectsRing(t *testing.T) {
	topo := topology.Torus(4, 4, topology.DefaultLinkConfig())
	if _, err := ni.CompileSchedule(ring.Build(topo, 256)); err == nil {
		t.Fatal("ring schedule compiled to NI tables")
	}
}

// TestCompileScheduleRejectsNonTreeForms: ring's all-gather does not
// retrace its reduce path and HDRM exchanges nested flow halves; both
// must be rejected with a descriptive error rather than mis-compiled.
func TestCompileScheduleRejectsNonTreeForms(t *testing.T) {
	torus := topology.Torus(4, 4, topology.DefaultLinkConfig())
	if _, err := ni.CompileSchedule(ring.Build(torus, 256)); err == nil {
		t.Fatal("ring schedule compiled to NI tables")
	} else if !strings.Contains(err.Error(), "mirror") {
		t.Fatalf("ring rejection should mention the missing mirror, got: %v", err)
	}
	big := topology.BiGraph(4, 4, topology.DefaultLinkConfig())
	hs, err := hdrm.Build(big, 256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ni.CompileSchedule(hs); err == nil {
		t.Fatal("hdrm schedule compiled to NI tables")
	}
}

// TestCompileScheduleRejectsRegistryNonTrees: every registry algorithm
// other than MultiTree builds a schedule with no Fig. 5 encoding on
// torus-4x4, and each is refused with an error naming the reason.
func TestCompileScheduleRejectsRegistryNonTrees(t *testing.T) {
	topo, err := topospec.Parse("torus-4x4")
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{
		"ring":    "mirror",
		"dbtree":  "mirror",
		"2d-ring": "outside the all-gather phase",
		"hdrm":    "two roots",
	} {
		s, err := algorithms.Build(topo, name, 4096, algorithms.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, err = ni.CompileSchedule(s)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: got error %v, want one mentioning %q", name, err, want)
		}
	}
}

// TestCompileScheduleRejectsMalformedTrees mutates a valid MultiTree
// schedule into each shape the compiler must refuse. Every case errors
// with its reason; none panics.
func TestCompileScheduleRejectsMalformedTrees(t *testing.T) {
	topo := topology.Torus(4, 4, topology.DefaultLinkConfig())
	base, err := core.Build(topo, 1024, core.DefaultOptions(topo))
	if err != nil {
		t.Fatal(err)
	}
	tot := base.Steps / 2
	// In flow 0, find the root, a leaf and a non-root node with children.
	var root, leaf, inner topology.NodeID = -1, -1, -1
	parent := map[topology.NodeID]topology.NodeID{}
	sends := map[topology.NodeID]bool{}
	for _, tr := range base.Transfers {
		if tr.Flow == 0 && tr.Op == collective.Gather {
			parent[tr.Dst] = tr.Src
			sends[tr.Src] = true
		}
	}
	for v := range sends {
		if _, ok := parent[v]; !ok {
			root = v
		}
	}
	for v := range parent {
		if sends[v] && (inner < 0 || v < inner) {
			inner = v
		}
		if !sends[v] && (leaf < 0 || v < leaf) {
			leaf = v
		}
	}
	if root < 0 || leaf < 0 || inner < 0 {
		t.Fatalf("flow 0 has no root (%d), leaf (%d) or inner node (%d)", root, leaf, inner)
	}
	// edgeInto matches both phases' transfers of the flow-0 edge into v.
	edgeInto := func(v topology.NodeID) func(tr *collective.Transfer) bool {
		return func(tr *collective.Transfer) bool {
			return tr.Flow == 0 && (tr.Op == collective.Gather && tr.Dst == v || tr.Op == collective.Reduce && tr.Src == v)
		}
	}
	firstOf := func(op collective.Op) func(tr *collective.Transfer) bool {
		return func(tr *collective.Transfer) bool { return tr.Flow == 0 && tr.Op == op }
	}
	cases := []struct {
		name string
		drop func(tr *collective.Transfer) bool // removes every match
		edit func(s *collective.Schedule)
		want string
	}{
		{name: "gather without mirrored reduce", drop: onlyFirst(firstOf(collective.Reduce)), want: "no mirrored reduce"},
		{name: "reduce without mirrored gather", drop: onlyFirst(firstOf(collective.Gather)), want: "mirrors no all-gather edge"},
		{name: "two roots", drop: edgeInto(inner), want: "two roots"},
		{name: "subset flow", drop: edgeInto(leaf), want: "subset"},
		{name: "gather outside the all-gather phase", edit: func(s *collective.Schedule) {
			for i := range s.Transfers {
				if s.Transfers[i].Op == collective.Gather {
					s.Transfers[i].Step = int32(tot)
					break
				}
			}
		}, want: "outside the all-gather phase"},
		{name: "reduce from a root", edit: func(s *collective.Schedule) {
			s.Add(collective.Transfer{Src: root, Dst: leaf, Op: collective.Reduce, Flow: 0, Step: 1}, nil, nil)
		}, want: "mirrors no all-gather edge"},
		{name: "second gather into a node", edit: func(s *collective.Schedule) {
			s.Add(collective.Transfer{Src: root, Dst: leaf, Op: collective.Gather, Flow: 0, Step: int32(tot + 1)}, nil, nil)
		}, want: "receives two all-gather transfers"},
		{name: "flow out of range", edit: func(s *collective.Schedule) { s.Transfers[0].Flow = int32(len(s.Flows)) }, want: "outside the"},
		{name: "odd step count", edit: func(s *collective.Schedule) { s.Steps++ }, want: "even two-phase"},
	}
	for _, tc := range cases {
		// The compiler reads no dependencies, so the kept transfers go in
		// without them.
		s := &collective.Schedule{Algorithm: base.Algorithm, Topo: base.Topo, Elems: base.Elems, Flows: base.Flows, Steps: base.Steps}
		for i := range base.Transfers {
			if tc.drop == nil || !tc.drop(&base.Transfers[i]) {
				s.Add(base.Transfers[i], nil, base.Path(i))
			}
		}
		if tc.edit != nil {
			tc.edit(s)
		}
		_, err := ni.CompileSchedule(s)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got error %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}

// onlyFirst narrows a transfer predicate to its first match.
func onlyFirst(match func(tr *collective.Transfer) bool) func(tr *collective.Transfer) bool {
	done := false
	return func(tr *collective.Transfer) bool {
		if done || !match(tr) {
			return false
		}
		done = true
		return true
	}
}

// TestCompileScheduleRejectsWideSameStep: a node with five children
// attached at the same step overflows the four-slot Children field of its
// Gather row, which has no chained encoding.
func TestCompileScheduleRejectsWideSameStep(t *testing.T) {
	topo := topology.Torus(4, 4, topology.DefaultLinkConfig())
	n := topo.Nodes()
	trees := make([]*collective.Tree, n)
	for f := range trees {
		tr := collective.NewTree(f, topology.NodeID(f), n)
		prev, step := topology.NodeID(f), 1
		for k := 1; k < n; k++ {
			v := topology.NodeID((f + k) % n)
			if k <= 5 {
				tr.SetEdge(topology.NodeID(f), v, 1)
				prev = v
				continue
			}
			step++
			tr.SetEdge(prev, v, step)
			prev = v
		}
		trees[f] = tr
	}
	s, err := collective.TreesToSchedule(core.Algorithm, topo, 1024, trees)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ni.CompileSchedule(s)
	if err == nil || !strings.Contains(err.Error(), "same-step children") {
		t.Fatalf("got error %v, want the same-step children limit", err)
	}
}
