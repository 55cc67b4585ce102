package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// fakeClock advances a fixed amount per reading, so wall-time math is
// deterministic.
type fakeClock struct {
	t    time.Time
	step time.Duration
}

func (c *fakeClock) now() time.Time {
	c.t = c.t.Add(c.step)
	return c.t
}

func TestPlanProfileAggregates(t *testing.T) {
	p := NewPlanProfile()
	clk := &fakeClock{t: time.Unix(1000, 0), step: time.Second}
	p.now = clk.now

	p.Pipeline(0, 2)
	p.PhaseStart(PhaseTreeGrowth) // t=1s
	p.PlanProgress(PhaseTreeGrowth, 5, 10)
	p.PhaseEnd(PhaseTreeGrowth, PlanCounters{Steps: 3, NodesAttached: 5, Searches: 7, SearchMisses: 2}) // t=2s
	p.Pipeline(1, 2)
	p.PhaseStart(PhaseLowering)                            // t=3s
	p.PhaseEnd(PhaseLowering, PlanCounters{Transfers: 30}) // t=4s
	p.Pipeline(2, 2)

	phases := p.Phases()
	if len(phases) != 2 {
		t.Fatalf("got %d phases, want 2", len(phases))
	}
	if phases[0].Phase != PhaseTreeGrowth || phases[1].Phase != PhaseLowering {
		t.Fatalf("wrong phase order: %v, %v", phases[0].Phase, phases[1].Phase)
	}
	if phases[0].WallNanos != int64(time.Second) {
		t.Fatalf("tree-growth wall %d, want 1s", phases[0].WallNanos)
	}
	if phases[0].Counters.NodesAttached != 5 || phases[0].Counters.SearchMisses != 2 {
		t.Fatalf("counters not recorded: %+v", phases[0].Counters)
	}
	if got := p.TotalWallNanos(); got != int64(2*time.Second) {
		t.Fatalf("total wall %d, want 2s", got)
	}

	rep := p.Report()
	if rep.TotalNanos != int64(2*time.Second) || len(rep.Phases) != 2 {
		t.Fatalf("report: %+v", rep)
	}
	if rep.Phases[0].Share != 0.5 {
		t.Fatalf("share %v, want 0.5", rep.Phases[0].Share)
	}

	var csv bytes.Buffer
	if err := p.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "phase,runs,wall_ns,share,") {
		t.Fatalf("bad CSV:\n%s", csv.String())
	}
	if !strings.HasPrefix(lines[1], "tree-growth,1,") {
		t.Fatalf("bad CSV row: %s", lines[1])
	}
}

// TestPlanProfileOverlappingRuns covers parallel sweep workers sharing
// one profile: overlapping runs of the same phase charge the union
// interval once.
func TestPlanProfileOverlappingRuns(t *testing.T) {
	p := NewPlanProfile()
	clk := &fakeClock{t: time.Unix(1000, 0), step: time.Second}
	p.now = clk.now

	p.PhaseStart(PhaseTreeGrowth)               // t=1: opens interval
	p.PhaseStart(PhaseTreeGrowth)               // t=2: nested, no new interval
	p.PhaseEnd(PhaseTreeGrowth, PlanCounters{}) // t=3: still open
	p.PhaseEnd(PhaseTreeGrowth, PlanCounters{}) // t=4: closes, wall = 3s
	phases := p.Phases()
	if len(phases) != 1 || phases[0].Runs != 2 {
		t.Fatalf("phases: %+v", phases)
	}
	if phases[0].WallNanos != int64(3*time.Second) {
		t.Fatalf("union wall %v, want 3s", phases[0].WallNanos)
	}
}

// TestPlanProfileCallbacksZeroAlloc pins the <1%-overhead claim at its
// root: an attached profile's callbacks allocate nothing, so enabling
// observation costs mutex hops at phase/step boundaries only.
func TestPlanProfileCallbacksZeroAlloc(t *testing.T) {
	p := NewPlanProfile()
	c := PlanCounters{Steps: 1, Searches: 10}
	if allocs := testing.AllocsPerRun(100, func() {
		p.PhaseStart(PhaseTreeGrowth)
		p.PlanProgress(PhaseTreeGrowth, 1, 2)
		p.Pipeline(1, 4)
		p.PhaseEnd(PhaseTreeGrowth, c)
	}); allocs != 0 {
		t.Fatalf("PlanProfile callbacks allocate %.1f per cycle, want 0", allocs)
	}
}

func TestTeePlan(t *testing.T) {
	if TeePlan(nil, nil) != nil {
		t.Fatal("TeePlan of nils should be nil")
	}
	a, b := NewPlanProfile(), NewPlanProfile()
	if got := TeePlan(nil, a); got != a {
		t.Fatal("single observer should pass through")
	}
	rec := &pipelineRecorder{}
	tee := TeePlan(a, b, rec)
	tee.PhaseStart(PhaseLowering)
	tee.PhaseEnd(PhaseLowering, PlanCounters{Transfers: 4})
	tee.Pipeline(1, 2)
	for _, p := range []*PlanProfile{a, b} {
		phases := p.Phases()
		if len(phases) != 1 || phases[0].Counters.Transfers != 4 {
			t.Fatalf("tee did not fan out: %+v", phases)
		}
	}
	if rec.done != 1 || rec.total != 2 {
		t.Fatalf("tee pipeline = %d/%d, want 1/2", rec.done, rec.total)
	}
}

// pipelineRecorder is a PlanObserver keeping the latest Pipeline call.
type pipelineRecorder struct{ done, total int }

func (r *pipelineRecorder) PhaseStart(PlanPhase)                 {}
func (r *pipelineRecorder) PhaseEnd(PlanPhase, PlanCounters)     {}
func (r *pipelineRecorder) PlanProgress(PlanPhase, int64, int64) {}
func (r *pipelineRecorder) Pipeline(done, total int)             { r.done, r.total = done, total }

func TestProgressNonInteractive(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, false)
	clk := &fakeClock{t: time.Unix(1000, 0), step: 3 * time.Second}
	p.now = clk.now

	p.Pipeline(0, 2)
	p.PhaseStart(PhaseTreeGrowth)
	p.PlanProgress(PhaseTreeGrowth, 250, 1000)
	p.PlanProgress(PhaseTreeGrowth, 500, 1000)
	p.PhaseEnd(PhaseTreeGrowth, PlanCounters{Steps: 9, NodesAttached: 1000, Searches: 1200, SearchMisses: 200})

	out := buf.String()
	if strings.ContainsAny(out, "\r\x1b") {
		t.Fatalf("non-interactive output contains control characters:\n%q", out)
	}
	if !strings.Contains(out, "tree-growth started") {
		t.Fatalf("missing start line:\n%s", out)
	}
	if !strings.Contains(out, "(25.0%)") || !strings.Contains(out, "eta ") {
		t.Fatalf("missing progress/eta:\n%s", out)
	}
	if !strings.Contains(out, "[phase 1/2]") {
		t.Fatalf("missing pipeline counter:\n%s", out)
	}
	if !strings.Contains(out, "tree-growth done in") || !strings.Contains(out, "1000 attachments") {
		t.Fatalf("missing completion summary:\n%s", out)
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if line == "" {
			t.Fatalf("blank line in plain output:\n%q", out)
		}
	}
}

func TestProgressNonInteractiveThrottles(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, false)
	// 101 readings 10ms apart stay inside the 2s non-interactive interval.
	clk := &fakeClock{t: time.Unix(1000, 0), step: 10 * time.Millisecond}
	p.now = clk.now

	p.PhaseStart(PhaseTreeGrowth)
	for i := int64(1); i <= 100; i++ {
		p.PlanProgress(PhaseTreeGrowth, i, 100)
	}
	// One start line plus exactly two samples: the first, and the final
	// 100% sample, which bypasses the throttle so a phase never ends
	// without its completion figure on record. Everything in between
	// falls inside the interval.
	if got := strings.Count(buf.String(), "\n"); got != 3 {
		t.Fatalf("throttling failed: %d lines\n%s", got, buf.String())
	}
	if !strings.Contains(buf.String(), "100/100 (100.0%)") {
		t.Fatalf("missing final 100%% sample:\n%s", buf.String())
	}
}

func TestProgressDegenerateSamples(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, false)
	clk := &fakeClock{t: time.Unix(1000, 0), step: time.Second}
	p.now = clk.now

	p.PhaseStart(PhaseTreeGrowth)
	p.PlanProgress(PhaseTreeGrowth, 0, 0)  // unknown total
	p.PlanProgress(PhaseTreeGrowth, 7, 0)  // done with no total
	p.PlanProgress(PhaseTreeGrowth, 12, 8) // done past total
	out := buf.String()
	for _, bad := range []string{"+Inf", "NaN", "Inf"} {
		if strings.Contains(out, bad) {
			t.Fatalf("degenerate sample printed %s:\n%s", bad, out)
		}
	}
	if strings.Contains(out, "0/0 (") && !strings.Contains(out, "0/0 (0.0%)") {
		t.Fatalf("total=0 should report 0%%:\n%s", out)
	}
	if !strings.Contains(out, "12/8 (100.0%)") {
		t.Fatalf("done past total should clamp to 100%%:\n%s", out)
	}
	if strings.Contains(out, "12/8 (100.0%) eta") || strings.Contains(out, "eta -") {
		t.Fatalf("degenerate sample printed an ETA:\n%s", out)
	}
}

func TestProgressInteractive(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, true)
	clk := &fakeClock{t: time.Unix(1000, 0), step: time.Second}
	p.now = clk.now

	p.PhaseStart(PhaseTreeGrowth)
	p.PlanProgress(PhaseTreeGrowth, 1, 4)
	p.PhaseEnd(PhaseTreeGrowth, PlanCounters{})
	out := buf.String()
	if !strings.Contains(out, "\r") {
		t.Fatalf("interactive output should rewrite with \\r:\n%q", out)
	}
	if !strings.Contains(out, "tree-growth done in") {
		t.Fatalf("missing completion line:\n%q", out)
	}
	// The completion line must start at column 0 (open line erased).
	if i := strings.Index(out, "plan: tree-growth done"); i > 0 && out[i-1] != 'K' {
		t.Fatalf("completion line not preceded by erase:\n%q", out)
	}
}
