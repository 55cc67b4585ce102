package core

import (
	"bytes"
	"testing"

	"multitree/internal/collective"
	"multitree/internal/ni"
	"multitree/internal/obs"
	"multitree/internal/topology"
)

// TestPlanObserverNilZeroAlloc pins the cost contract of the planner
// instrumentation: with no observer attached, the hot search paths — the
// per-turn find and scan over a saturated tree set, where misses dominate
// dense steps — perform zero allocations. The search counters are plain
// integer fields, so this also proves counting them is free of heap
// traffic.
func TestPlanObserverNilZeroAlloc(t *testing.T) {
	topo := topology.Torus(4, 4, cfg())
	f := newPathFinder(topo)
	inTree := make([]bool, topo.Nodes())
	for i := range inTree {
		inTree[i] = true // every node attached: the search must miss
	}
	dead := make([]bool, topo.Nodes())
	avail := newBitset(len(topo.Links()))
	avail.fill()
	parents := []topology.NodeID{0, 1, 2, 3}
	// Each call starts from a fresh cursor so the full frontier rescan is
	// what gets measured, not a cursor already at the end of the list.
	find := func() topology.NodeID {
		next := 0
		c, _, _ := f.find(parents, inTree, avail, dead, &next)
		return c
	}
	// Warm the scratch queue so steady-state reuse is what gets measured.
	find()
	if allocs := testing.AllocsPerRun(200, func() {
		if find() >= 0 {
			t.Fatal("search unexpectedly found a child")
		}
	}); allocs != 0 {
		t.Fatalf("nil-observer search path allocates %.1f per find, want 0", allocs)
	}

	f.shortestFirst = true
	if allocs := testing.AllocsPerRun(200, func() { find() }); allocs != 0 {
		t.Fatalf("shortest-first search path allocates %.1f per find, want 0", allocs)
	}

	var cands []candidate
	for _, p := range parents {
		for _, id := range topo.Out(int(p)) {
			cands = append(cands, candidate{link: int32(id), dst: int32(topo.Link(id).Dst)})
		}
	}
	if allocs := testing.AllocsPerRun(200, func() {
		next := 0
		if c, _, _ := f.scan(cands, inTree, avail, &next); c >= 0 {
			t.Fatal("scan unexpectedly found a child")
		}
	}); allocs != 0 {
		t.Fatalf("nil-observer scan allocates %.1f per scan, want 0", allocs)
	}
}

// TestObserverDoesNotChangeSchedule proves the golden property of the
// instrumentation: attaching an observer changes no byte of the planner's
// output. Exercises both the direct path and the Auto path (two growth
// runs, two lowerings, variant scoring).
func TestObserverDoesNotChangeSchedule(t *testing.T) {
	cases := []*topology.Topology{
		topology.Torus(4, 4, cfg()),
		topology.BiGraph(4, 4, cfg()), // DefaultOptions enables Auto here
	}
	for _, topo := range cases {
		opts := DefaultOptions(topo)
		plain, err := Build(topo, 1<<12, opts)
		if err != nil {
			t.Fatalf("%s: %v", topo.Name(), err)
		}
		opts.Observer = obs.NewPlanProfile()
		observed, err := Build(topo, 1<<12, opts)
		if err != nil {
			t.Fatalf("%s observed: %v", topo.Name(), err)
		}
		var a, b bytes.Buffer
		if err := collective.Export(&a, plain); err != nil {
			t.Fatal(err)
		}
		if err := collective.Export(&b, observed); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: observed build exports different bytes (%d vs %d)",
				topo.Name(), a.Len(), b.Len())
		}
	}
}

// progressRecorder is a PlanObserver keeping the latest PlanProgress
// and Pipeline samples, so tests can pin what the planner emits to live
// reporters.
type progressRecorder struct {
	phase                     obs.PlanPhase
	done, total               int64
	pipelineDone, pipelineAll int
}

func (r *progressRecorder) PhaseStart(obs.PlanPhase)                 {}
func (r *progressRecorder) PhaseEnd(obs.PlanPhase, obs.PlanCounters) {}
func (r *progressRecorder) Pipeline(done, total int) {
	r.pipelineDone, r.pipelineAll = done, total
}
func (r *progressRecorder) PlanProgress(ph obs.PlanPhase, done, total int64) {
	r.phase, r.done, r.total = ph, done, total
}

// TestPlanProfilePhases checks the recorded breakdown of an observed
// build: phase set, counter arithmetic, progress and pipeline end state.
func TestPlanProfilePhases(t *testing.T) {
	topo := topology.Torus(4, 4, cfg())
	n := topo.Nodes()
	p := obs.NewPlanProfile()
	rec := &progressRecorder{}
	s, err := Build(topo, 1<<12, Options{Observer: obs.TeePlan(p, rec)})
	if err != nil {
		t.Fatal(err)
	}

	byPhase := map[obs.PlanPhase]obs.PhaseProfile{}
	for _, ph := range p.Phases() {
		byPhase[ph.Phase] = ph
	}
	growth, ok := byPhase[obs.PhaseTreeGrowth]
	if !ok {
		t.Fatal("no tree-growth phase recorded")
	}
	if want := int64(n * (n - 1)); growth.Counters.NodesAttached != want {
		t.Errorf("attachments = %d, want %d", growth.Counters.NodesAttached, want)
	}
	if growth.Counters.TreesGrown != int64(n) {
		t.Errorf("trees grown = %d, want %d", growth.Counters.TreesGrown, n)
	}
	if growth.Counters.Steps == 0 || growth.Counters.Searches == 0 || growth.Counters.LinksScanned == 0 {
		t.Errorf("growth counters empty: %+v", growth.Counters)
	}
	if growth.Counters.LinksAllocated < growth.Counters.NodesAttached {
		t.Errorf("links allocated %d < attachments %d", growth.Counters.LinksAllocated, growth.Counters.NodesAttached)
	}
	lower, ok := byPhase[obs.PhaseLowering]
	if !ok {
		t.Fatal("no lowering phase recorded")
	}
	if lower.Counters.Transfers != int64(len(s.Transfers)) {
		t.Errorf("lowering transfers = %d, want %d", lower.Counters.Transfers, len(s.Transfers))
	}

	// Lowering emits progress after tree growth, so the final sample is
	// the lowering phase completing all transfers.
	if rec.phase != obs.PhaseLowering || rec.done != rec.total || rec.total != int64(len(s.Transfers)) {
		t.Errorf("final progress %v %d/%d", rec.phase, rec.done, rec.total)
	}
	if rec.pipelineAll == 0 || rec.pipelineDone != rec.pipelineAll {
		t.Errorf("pipeline did not complete: %d/%d", rec.pipelineDone, rec.pipelineAll)
	}

	// The NI compilation joins the same profile as its own phase.
	ts, err := ni.CompileScheduleObserved(s, p)
	if err != nil {
		t.Fatal(err)
	}
	var entries int64
	for _, tab := range ts.PerNode {
		entries += int64(len(tab.Entries))
	}
	var found bool
	for _, ph := range p.Phases() {
		if ph.Phase == obs.PhaseNICompile {
			found = true
			if ph.Counters.TableEntries != entries {
				t.Errorf("ni-compile entries = %d, want %d", ph.Counters.TableEntries, entries)
			}
		}
	}
	if !found {
		t.Error("no ni-compile phase recorded")
	}
}

// TestPlanProfileAutoRuns: the Auto path runs tree-growth and lowering
// twice and scores once, all visible in the profile.
func TestPlanProfileAutoRuns(t *testing.T) {
	topo := topology.BiGraph(4, 4, cfg())
	p := obs.NewPlanProfile()
	if _, err := Build(topo, 1<<12, Options{Auto: true, Observer: p}); err != nil {
		t.Fatal(err)
	}
	runs := map[obs.PlanPhase]int64{}
	for _, ph := range p.Phases() {
		runs[ph.Phase] = ph.Runs
	}
	if runs[obs.PhaseTreeGrowth] != 2 {
		t.Errorf("tree-growth runs = %d, want 2", runs[obs.PhaseTreeGrowth])
	}
	if runs[obs.PhaseLowering] != 2 {
		t.Errorf("lowering runs = %d, want 2", runs[obs.PhaseLowering])
	}
	if runs[obs.PhaseVariantScore] != 1 {
		t.Errorf("variant-score runs = %d, want 1", runs[obs.PhaseVariantScore])
	}
}

// BenchmarkPlanObserverOverhead quantifies the cost of an attached
// PlanProfile against the nil baseline on a full 8x8 torus construction:
// callbacks fire at phase and step boundaries only, so the delta should
// be within noise (<1%).
func BenchmarkPlanObserverOverhead(b *testing.B) {
	topo := topology.Torus(8, 8, cfg())
	b.Run("nil", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := BuildTrees(topo, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("profile", func(b *testing.B) {
		p := obs.NewPlanProfile()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := BuildTrees(topo, Options{Observer: p}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
