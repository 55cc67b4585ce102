package multitree

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestSimulateTraced runs the public tracing path end to end: build,
// simulate with recording, export Chrome-trace JSON and the link CSV, and
// check both artifacts are well formed and consistent with the result.
func TestSimulateTraced(t *testing.T) {
	topo := NewTorus(4, 4)
	s, err := BuildSchedule(topo, MultiTree, 1<<20, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []SimOptions{{}, {PacketLevel: true}} {
		res, tr, err := s.SimulateTraced(opt)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := s.Simulate(opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles != plain.Cycles {
			t.Fatalf("tracing changed the simulation: %d vs %d cycles", res.Cycles, plain.Cycles)
		}
		if tr.Events() == 0 {
			t.Fatalf("no events recorded")
		}

		var js bytes.Buffer
		if err := tr.WriteChromeTrace(&js); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(js.Bytes(), &doc); err != nil {
			t.Fatalf("Chrome trace is not valid JSON: %v", err)
		}
		if len(doc.TraceEvents) == 0 {
			t.Fatalf("Chrome trace has no events")
		}

		var csv bytes.Buffer
		if err := tr.WriteLinkStats(&csv, 1000); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
		if len(lines) < 2 || !strings.HasPrefix(lines[0], "link,name,") {
			t.Fatalf("bad link CSV:\n%s", csv.String())
		}
	}
}

// TestBuildSchedulePlanOptions drives the public plan-cache facade only
// through BuildSchedule's PlanOptions, on mesh-8x8 MultiTree: a cold
// build misses and stores, a fresh memory tier loads from disk, a reused
// one serves from memory, VerifyFull re-validates, and neither workers
// nor profiling change anything. Every build exports the same bytes.
func TestBuildSchedulePlanOptions(t *testing.T) {
	topo := NewMesh(8, 8)
	build := func(t *testing.T, opt PlanOptions) []byte {
		t.Helper()
		s, err := BuildSchedule(topo, MultiTree, 256<<10, opt)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := s.Export(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	want := build(t, PlanOptions{})
	export := func(t *testing.T, opt PlanOptions) {
		t.Helper()
		if !bytes.Equal(build(t, opt), want) {
			t.Errorf("export differs from the plain build's")
		}
	}
	cache, err := OpenPlanCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	mem := NewPlanMemCache(64 << 20)

	t.Run("cold", func(t *testing.T) {
		export(t, PlanOptions{Cache: cache, MemCache: NewPlanMemCache(64 << 20)})
		if st := cache.Stats(); st.Misses != 1 || st.Hits != 0 || st.BytesWritten <= 0 {
			t.Errorf("cold build stats %+v, want 1 miss and bytes written", st)
		}
	})
	t.Run("disk-hit", func(t *testing.T) {
		export(t, PlanOptions{Cache: cache, MemCache: mem})
		if st := cache.Stats(); st.Hits != 1 || st.SummaryLoads != 1 {
			t.Errorf("disk hit stats %+v, want 1 summary-validated hit", st)
		}
	})
	t.Run("memory-hit", func(t *testing.T) {
		export(t, PlanOptions{Cache: cache, MemCache: mem})
		if st := mem.Stats(); st.Hits != 1 {
			t.Errorf("memory tier stats %+v, want 1 hit", st)
		}
		if st := cache.Stats(); st.Hits != 1 {
			t.Errorf("memory hit reached the disk tier: %+v", st)
		}
	})
	t.Run("verify-full", func(t *testing.T) {
		cache.SetVerifyFull(true)
		defer cache.SetVerifyFull(false)
		export(t, PlanOptions{Cache: cache})
		if st := cache.Stats(); st.FullLoads != 1 || st.SummaryLoads != 1 {
			t.Errorf("verify-full stats %+v, want 1 full and 1 summary load", st)
		}
	})
	t.Run("workers", func(t *testing.T) {
		export(t, PlanOptions{Workers: 1})
		export(t, PlanOptions{Workers: 4})
	})
	t.Run("profile", func(t *testing.T) {
		p := NewPlanProfile()
		export(t, PlanOptions{Profile: p})
		if p.TotalWallNanos() <= 0 {
			t.Error("profile recorded no planner wall time")
		}
		if done, total := p.Progress(); total == 0 || done != total {
			t.Errorf("pipeline incomplete after build: %d/%d", done, total)
		}
		var csv strings.Builder
		if err := p.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(csv.String(), "tree-growth") {
			t.Errorf("profile CSV missing tree-growth phase:\n%s", csv.String())
		}
	})
}
