package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
)

// PromHandler serves the observability state in Prometheus text
// exposition format (version 0.0.4), stdlib only. It is the metrics
// surface allreduce-bench mounts behind -metrics-addr, and the exact
// handler a long-running planning service (cmd/plan-server, ROADMAP)
// will expose: per-run engine aggregates accumulate via ObserveSim, the
// planner side reads live from an attached mutex-protected PlanProfile,
// so a scrape during a 20-minute build reports phase and progress
// gauges mid-flight.
//
// All metrics are prefixed "multitree_". Cardinality is deliberately
// node-count-independent: link-level detail stays in the CSV/trace
// exports; the endpoint carries totals, so a 4096-node fabric scrapes
// as cheaply as a 16-node one.
type PromHandler struct {
	mu sync.Mutex

	plan *PlanProfile

	cache    PlanCacheReport // plan-cache store totals (ObservePlanCache)
	hasCache bool

	runs           int64
	sim            MetricsSnapshot // accumulated across observed runs
	engineQueueMax int64           // max across runs
}

// NewPromHandler returns an empty handler ready to mount on a mux.
func NewPromHandler() *PromHandler { return &PromHandler{} }

// SetPlanProfile attaches the profile the planner side reports into.
// The profile's own mutex makes concurrent scrape-during-build safe.
func (h *PromHandler) SetPlanProfile(p *PlanProfile) {
	h.mu.Lock()
	h.plan = p
	h.mu.Unlock()
}

// ObservePlanCache publishes the plan-cache store totals (hits, misses,
// IR bytes moved, evictions). Call it whenever the stats move; the last
// snapshot wins.
func (h *PromHandler) ObservePlanCache(c PlanCacheReport) {
	h.mu.Lock()
	h.cache = c
	h.hasCache = true
	h.mu.Unlock()
}

// ObserveSim folds one completed run's metrics snapshot into the served
// totals and bumps the run counter. Call it at quiescent points (a run
// just finished), never concurrently with the collector still folding
// events.
func (h *PromHandler) ObserveSim(s MetricsSnapshot) {
	h.mu.Lock()
	h.runs++
	h.sim.Events += s.Events
	h.sim.StepEnters += s.StepEnters
	h.sim.LinkBusyCycles += s.LinkBusyCycles
	if s.LinksActive > h.sim.LinksActive {
		h.sim.LinksActive = s.LinksActive
	}
	h.sim.NIEntriesIssued += s.NIEntriesIssued
	h.sim.NIDepsCleared += s.NIDepsCleared
	h.sim.NILockstepNOPs += s.NILockstepNOPs
	if s.EngineQueueMax > h.engineQueueMax {
		h.engineQueueMax = s.EngineQueueMax
	}
	h.mu.Unlock()
}

// ServeHTTP implements http.Handler.
func (h *PromHandler) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := h.WriteProm(w); err != nil {
		// Headers are out; nothing more to do than drop the connection.
		return
	}
}

// WriteProm writes the exposition text. Split out from ServeHTTP so
// tests and snapshot dumps need no HTTP plumbing.
func (h *PromHandler) WriteProm(w io.Writer) error {
	h.mu.Lock()
	runs, sim, queueMax, plan := h.runs, h.sim, h.engineQueueMax, h.plan
	cache, hasCache := h.cache, h.hasCache
	h.mu.Unlock()

	p := promWriter{w: w}
	p.metric("multitree_up", "gauge", "Whether the multitree metrics surface is serving.", nil, 1)
	p.metric("multitree_sim_runs_total", "counter", "Completed simulation runs observed.", nil, float64(runs))
	p.metric("multitree_sim_events_total", "counter", "Typed simulator events dispatched across observed runs.", nil, float64(sim.Events))
	p.metric("multitree_sim_step_enters_total", "counter", "Lockstep step entries across observed runs.", nil, float64(sim.StepEnters))
	p.metric("multitree_sim_engine_queue_max", "gauge", "Peak pending-event count of the discrete-event core (heap high-water mark).", nil, float64(queueMax))
	p.metric("multitree_sim_link_busy_cycles_total", "counter", "Busy-equivalent link cycles summed over all links and runs.", nil, sim.LinkBusyCycles)
	p.metric("multitree_sim_links_active", "gauge", "Directed links that carried traffic in the widest observed run.", nil, float64(sim.LinksActive))
	p.metric("multitree_ni_entries_issued_total", "counter", "NI schedule-table entries issued across observed runs.", nil, float64(sim.NIEntriesIssued))
	p.metric("multitree_ni_deps_cleared_total", "counter", "NI dependency-clearing receives across observed runs.", nil, float64(sim.NIDepsCleared))
	p.metric("multitree_ni_lockstep_nops_total", "counter", "NI lockstep down-counter NOP elapses across observed runs.", nil, float64(sim.NILockstepNOPs))

	if plan != nil {
		phases := plan.Phases()
		sort.Slice(phases, func(i, j int) bool { return phases[i].Phase < phases[j].Phase })
		p.head("multitree_plan_phase_wall_seconds", "counter", "Wall time attributed to each planner phase.")
		for _, ph := range phases {
			p.sample("multitree_plan_phase_wall_seconds", ph.Phase.String(), float64(ph.WallNanos)/1e9)
		}
		p.head("multitree_plan_phase_runs_total", "counter", "Executions of each planner phase.")
		for _, ph := range phases {
			p.sample("multitree_plan_phase_runs_total", ph.Phase.String(), float64(ph.Runs))
		}
		var c PlanCounters
		for _, ph := range phases {
			c.Add(ph.Counters)
		}
		p.metric("multitree_plan_steps_total", "counter", "Construction time steps completed.", nil, float64(c.Steps))
		p.metric("multitree_plan_nodes_attached_total", "counter", "Tree (node, tree) attachments made.", nil, float64(c.NodesAttached))
		p.metric("multitree_plan_searches_total", "counter", "BFS child searches attempted.", nil, float64(c.Searches))
		p.metric("multitree_plan_search_misses_total", "counter", "Searches rejected for lack of a free path (conflict-set misses).", nil, float64(c.SearchMisses))
		p.metric("multitree_plan_links_scanned_total", "counter", "Directed links examined during searches.", nil, float64(c.LinksScanned))
		p.metric("multitree_plan_link_conflicts_total", "counter", "Links skipped because occupied within the step.", nil, float64(c.LinkConflicts))
		p.metric("multitree_plan_links_allocated_total", "counter", "Links claimed for tree edges.", nil, float64(c.LinksAllocated))
		p.metric("multitree_plan_transfers_total", "counter", "Schedule transfers emitted by lowering.", nil, float64(c.Transfers))
		p.metric("multitree_plan_dep_edges_total", "counter", "Dependency edges emitted by lowering.", nil, float64(c.DepEdges))
		p.metric("multitree_plan_path_hops_total", "counter", "Pinned path hops emitted by lowering.", nil, float64(c.PathHops))
		p.metric("multitree_plan_summary_validations_total", "counter", "Binary-IR loads accepted by validation summary + content hash.", nil, float64(c.SummaryValidations))
		p.metric("multitree_plan_full_validations_total", "counter", "Binary-IR loads validated by the full ValidateStrict pass.", nil, float64(c.FullValidations))
		p.metric("multitree_plan_decode_cpu_seconds_total", "counter", "Summed per-worker CPU spent decoding binary-IR sections into schedules.", nil, float64(c.DecodeNanos)/1e9)
		p.metric("multitree_plan_verify_cpu_seconds_total", "counter", "Summed per-worker CPU spent verifying binary-IR content digests.", nil, float64(c.VerifyNanos)/1e9)
		p.metric("multitree_plan_mem_cache_hits_total", "counter", "Decoded-plan memory-cache probes that returned a materialized schedule.", nil, float64(c.MemCacheHits))
		p.metric("multitree_plan_mem_cache_misses_total", "counter", "Decoded-plan memory-cache probes that fell through to disk or a build.", nil, float64(c.MemCacheMisses))

		phase, done, total := plan.Progress()
		if total > 0 {
			lbl := phase.String()
			p.head("multitree_plan_progress_done", "gauge", "Work units completed in the active planner phase.")
			p.sample("multitree_plan_progress_done", lbl, float64(done))
			p.head("multitree_plan_progress_total", "gauge", "Work units in the active planner phase.")
			p.sample("multitree_plan_progress_total", lbl, float64(total))
		}
		pdone, ptotal := plan.PipelineProgress()
		if ptotal > 0 {
			p.metric("multitree_plan_pipeline_done", "gauge", "Completed phase executions of the current build.", nil, float64(pdone))
			p.metric("multitree_plan_pipeline_total", "gauge", "Total phase executions of the current build.", nil, float64(ptotal))
		}
	}
	if hasCache {
		p.metric("multitree_plan_cache_hits_total", "counter", "Plan-cache probes that returned a validated schedule.", nil, float64(cache.Hits))
		p.metric("multitree_plan_cache_misses_total", "counter", "Plan-cache probes that fell through to a fresh build.", nil, float64(cache.Misses))
		p.metric("multitree_plan_cache_read_bytes_total", "counter", "Schedule IR bytes loaded from the plan cache.", nil, float64(cache.BytesRead))
		p.metric("multitree_plan_cache_written_bytes_total", "counter", "Schedule IR bytes stored into the plan cache.", nil, float64(cache.BytesWritten))
		p.metric("multitree_plan_cache_evictions_total", "counter", "Plan-cache entries evicted to hold the size cap.", nil, float64(cache.Evictions))
		p.metric("multitree_plan_cache_summary_validated_total", "counter", "Plan-cache hits accepted by validation summary + content hash.", nil, float64(cache.SummaryValidated))
		p.metric("multitree_plan_cache_full_validated_total", "counter", "Plan-cache hits validated by the full ValidateStrict pass.", nil, float64(cache.FullValidated))
		p.metric("multitree_plan_mem_cache_evictions_total", "counter", "Decoded-plan memory-cache entries evicted to hold the byte cap.", nil, float64(cache.MemEvictions))
		p.metric("multitree_plan_mem_cache_bytes", "gauge", "Materialized bytes resident in the decoded-plan memory cache.", nil, float64(cache.MemBytes))
		p.metric("multitree_plan_mem_cache_entries", "gauge", "Schedules resident in the decoded-plan memory cache.", nil, float64(cache.MemEntries))
	}
	return p.err
}

// promWriter accumulates the first write error so call sites stay flat.
type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// head writes the HELP/TYPE preamble of a metric family.
func (p *promWriter) head(name, typ, help string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// sample writes one phase-labeled sample.
func (p *promWriter) sample(name, phase string, v float64) {
	p.printf("%s{phase=%q} %g\n", name, phase, v)
}

// metric writes a full single-sample family; labels nil means none.
func (p *promWriter) metric(name, typ, help string, labels map[string]string, v float64) {
	p.head(name, typ, help)
	if len(labels) == 0 {
		p.printf("%s %g\n", name, v)
		return
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	p.printf("%s{", name)
	for i, k := range keys {
		if i > 0 {
			p.printf(",")
		}
		p.printf("%s=%q", k, labels[k])
	}
	p.printf("} %g\n", v)
}
