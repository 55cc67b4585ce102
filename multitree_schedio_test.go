package multitree

import (
	"bytes"
	"strings"
	"testing"
)

// TestPublicExportImport: the facade-level IR round trip preserves
// identity, semantics, and timing, and the imported schedule simulates
// through the public API without the original Topology object.
func TestPublicExportImport(t *testing.T) {
	topo := NewTorus(4, 4)
	orig, err := BuildSchedule(topo, MultiTree, 1<<18, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Export(&buf); err != nil {
		t.Fatal(err)
	}
	imp, err := ImportSchedule(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if imp.Algorithm() != orig.Algorithm() || imp.Steps() != orig.Steps() || imp.Transfers() != orig.Transfers() {
		t.Fatal("imported schedule header differs")
	}
	if imp.Topology().Nodes() != topo.Nodes() {
		t.Fatalf("imported topology has %d nodes, want %d", imp.Topology().Nodes(), topo.Nodes())
	}
	if err := imp.Verify(); err != nil {
		t.Fatal(err)
	}
	a, err := orig.Simulate(SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := imp.Simulate(SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles {
		t.Fatalf("imported schedule simulates in %d cycles, original in %d", b.Cycles, a.Cycles)
	}
}

// TestVerifyChecksImportedSchedule: Verify executes the imported schedule
// itself at every size. A file whose first all-gather transfer was edited
// into a reduce still passes strict import validation (the DAG, routes
// and coverage are intact) but no longer leaves every node with the sum.
func TestVerifyChecksImportedSchedule(t *testing.T) {
	topo := NewTorus(4, 4)
	for _, size := range []int64{8 << 10, 64 << 10} {
		s, err := BuildSchedule(topo, MultiTree, size, PlanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := s.Export(&buf); err != nil {
			t.Fatal(err)
		}
		const gather = `"op": "gather"`
		if !bytes.Contains(buf.Bytes(), []byte(gather)) {
			t.Fatalf("%d B: export has no %s transfer", size, gather)
		}
		tampered := bytes.Replace(buf.Bytes(), []byte(gather), []byte(`"op": "reduce"`), 1)
		imp, err := ImportSchedule(bytes.NewReader(tampered))
		if err != nil {
			t.Fatalf("%d B: tampered schedule rejected at import: %v", size, err)
		}
		if err := imp.Verify(); err == nil {
			t.Errorf("%d B: Verify accepted a schedule whose all-gather reduces", size)
		}
	}
}

// TestPublicImportRejectsGarbage: non-IR input fails with an error, not a
// panic or a half-built schedule.
func TestPublicImportRejectsGarbage(t *testing.T) {
	if _, err := ImportSchedule(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ImportSchedule(strings.NewReader(`{"version":1}`)); err == nil {
		t.Fatal("empty IR accepted")
	}
}
