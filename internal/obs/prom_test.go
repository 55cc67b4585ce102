package obs

import (
	"bufio"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// parseProm validates the exposition text line by line and returns the
// samples. It enforces the 0.0.4 format rules the CI smoke relies on:
// every sample preceded by HELP+TYPE for its family, parseable values,
// no duplicate series.
func parseProm(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	helped := make(map[string]bool)
	typed := make(map[string]bool)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(line[len("# HELP "):], " ", 2)
			if len(parts) != 2 || parts[1] == "" {
				t.Fatalf("malformed HELP line: %q", line)
			}
			helped[parts[0]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line[len("# TYPE "):])
			if len(parts) != 2 || (parts[1] != "counter" && parts[1] != "gauge") {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			typed[parts[0]] = true
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		series, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		family := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			family = series[:i]
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("unterminated label set: %q", line)
			}
		}
		if !strings.HasPrefix(family, "multitree_") {
			t.Fatalf("sample outside multitree namespace: %q", line)
		}
		if !helped[family] || !typed[family] {
			t.Fatalf("sample %q before its HELP/TYPE preamble", line)
		}
		if _, dup := samples[series]; dup {
			t.Fatalf("duplicate series %q", series)
		}
		samples[series] = val
	}
	return samples
}

func TestPromHandlerEmpty(t *testing.T) {
	var buf strings.Builder
	if err := NewPromHandler().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	s := parseProm(t, buf.String())
	if s["multitree_up"] != 1 {
		t.Fatalf("multitree_up = %v, want 1", s["multitree_up"])
	}
	if s["multitree_sim_runs_total"] != 0 {
		t.Fatalf("runs = %v, want 0", s["multitree_sim_runs_total"])
	}
}

func TestPromHandlerSimAndPlan(t *testing.T) {
	h := NewPromHandler()
	h.ObserveSim(MetricsSnapshot{Events: 100, StepEnters: 10, EngineQueueMax: 7, LinkBusyCycles: 1.5, LinksActive: 4, NIEntriesIssued: 20, NIDepsCleared: 9, NILockstepNOPs: 3})
	h.ObserveSim(MetricsSnapshot{Events: 50, EngineQueueMax: 3, LinksActive: 2})

	p := NewPlanProfile()
	clk := &fakeClock{step: 250 * time.Millisecond}
	p.now = clk.now
	p.PhaseStart(PhaseTreeGrowth)
	p.PlanProgress(PhaseTreeGrowth, 30, 60)
	p.PhaseEnd(PhaseTreeGrowth, PlanCounters{Steps: 4, NodesAttached: 30, Searches: 40, SearchMisses: 10, LinksScanned: 200, LinkConflicts: 50, LinksAllocated: 60})
	p.PhaseStart(PhaseDecode)
	p.PhaseEnd(PhaseDecode, PlanCounters{DecodeNanos: 2e9, VerifyNanos: 1e9, MemCacheHits: 5, MemCacheMisses: 2})
	p.Pipeline(1, 3)
	h.SetPlanProfile(p)
	h.ObservePlanCache(PlanCacheReport{Hits: 4, MemHits: 5, MemMisses: 2, MemEvictions: 1, MemBytes: 1 << 20, MemEntries: 3})

	var buf strings.Builder
	if err := h.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	s := parseProm(t, buf.String())

	if s["multitree_sim_runs_total"] != 2 || s["multitree_sim_events_total"] != 150 {
		t.Fatalf("sim accumulation wrong: %v", s)
	}
	if s["multitree_sim_engine_queue_max"] != 7 {
		t.Fatalf("queue max should take the max across runs: %v", s["multitree_sim_engine_queue_max"])
	}
	if s[`multitree_plan_phase_wall_seconds{phase="tree-growth"}`] != 0.25 {
		t.Fatalf("phase wall: %v", s[`multitree_plan_phase_wall_seconds{phase="tree-growth"}`])
	}
	if s["multitree_plan_search_misses_total"] != 10 || s["multitree_plan_link_conflicts_total"] != 50 {
		t.Fatalf("plan counters: %v", s)
	}
	if s[`multitree_plan_progress_done{phase="tree-growth"}`] != 30 ||
		s[`multitree_plan_progress_total{phase="tree-growth"}`] != 60 {
		t.Fatalf("plan progress gauges: %v", s)
	}
	if s["multitree_plan_pipeline_done"] != 1 || s["multitree_plan_pipeline_total"] != 3 {
		t.Fatalf("pipeline gauges: %v", s)
	}
	if s["multitree_plan_decode_cpu_seconds_total"] != 2 || s["multitree_plan_verify_cpu_seconds_total"] != 1 {
		t.Fatalf("decode/verify cpu counters: %v", s)
	}
	if s["multitree_plan_mem_cache_hits_total"] != 5 || s["multitree_plan_mem_cache_misses_total"] != 2 {
		t.Fatalf("mem-cache counters: %v", s)
	}
	if s["multitree_plan_cache_hits_total"] != 4 || s["multitree_plan_mem_cache_evictions_total"] != 1 ||
		s["multitree_plan_mem_cache_bytes"] != 1<<20 || s["multitree_plan_mem_cache_entries"] != 3 {
		t.Fatalf("mem-cache store gauges: %v", s)
	}
}

func TestPromHandlerServeHTTP(t *testing.T) {
	h := NewPromHandler()
	h.ObserveSim(MetricsSnapshot{Events: 1})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	parseProm(t, rec.Body.String())
}

// TestPromScrapeDuringBuild simulates a scrape arriving while a planner
// goroutine is mid-phase: the profile is attached and open but not yet
// ended. The scrape must not block or panic, and progress gauges must
// reflect the in-flight sample.
func TestPromScrapeDuringBuild(t *testing.T) {
	h := NewPromHandler()
	p := NewPlanProfile()
	h.SetPlanProfile(p)
	p.PhaseStart(PhaseTreeGrowth)
	p.PlanProgress(PhaseTreeGrowth, 5, 100)

	var buf strings.Builder
	if err := h.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	s := parseProm(t, buf.String())
	if s[`multitree_plan_progress_done{phase="tree-growth"}`] != 5 {
		t.Fatalf("in-flight progress not visible: %v", s)
	}
	if s[`multitree_plan_phase_runs_total{phase="tree-growth"}`] != 1 {
		t.Fatalf("open phase should still count a run: %v", s)
	}
}
