package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Planner observability: the simulation Tracer sees what the engines do,
// but nothing in PR 1's event stream covers the minutes a large-fabric
// core.Build spends *before* any engine runs. PlanObserver is the
// planning-side counterpart — a small lifecycle interface the MultiTree
// constructor, the schedule lowering and the NI table compiler report
// into, with the same cost contract as Tracer: every emit site is guarded
// by a nil check, the per-search counters are plain integer fields that
// exist regardless, and a nil observer adds zero allocations to the
// planner hot path (TestPlanObserverNilZeroAlloc, core package).
//
// Wall time is measured by the observer, not the planner: a nil observer
// means not even a time.Now call.

// PlanPhase identifies one named phase of the plan -> compile pipeline.
// The names are stable: they key the RunReport phase breakdown and the
// committed plan-profile CSVs.
type PlanPhase uint8

const (
	// PhaseTreeGrowth is Algorithm 1's main loop: trees taking turns
	// attaching one node at a time over per-step link allocation. This is
	// where large-fabric builds spend almost all of their time.
	PhaseTreeGrowth PlanPhase = iota

	// PhaseVariantScore is Auto mode's fluid-engine scoring of the
	// first-parent and shortest-path tree sets.
	PhaseVariantScore

	// PhaseLowering is collective.TreesToSchedule: spanning trees to the
	// transfer DAG with dependencies and pinned routes.
	PhaseLowering

	// PhaseNICompile is the Fig. 5 table compilation (internal/ni).
	PhaseNICompile

	// PhaseCacheLookup is the plan-cache probe (internal/plancache): key
	// derivation plus, on a hit, reading and validating the stored
	// schedule IR.
	PhaseCacheLookup

	// PhaseValidate is schedule validation at binary-IR load time: either
	// the O(1) summary + content-hash check of a trusted cache load or the
	// full ValidateStrict pass (-verify-plan). It nests inside
	// cache-lookup on warm loads, splitting the load cost into decode vs
	// validate.
	PhaseValidate

	// PhaseShardMerge is a retired slot that nothing emits: it was the
	// merge of the sharded tree-growth engine, which is gone. The slot
	// stays so PhaseDecode keeps its id, and because the benchmark's
	// trace adapter still names the constant.
	PhaseShardMerge

	// PhaseDecode is binary-IR materialization at load time: reading the
	// cache entry's chunks and decoding their fixed-width records into the
	// schedule's arrays, fanned out over Options.Workers. It nests inside
	// cache-lookup on warm loads; its DecodeNanos/VerifyNanos counters
	// split the per-worker CPU between read-and-decode and digest
	// verification (the phase wall covers both).
	PhaseDecode

	// NumPlanPhases bounds the phase ids; new phases append before it so
	// recorded profiles keep their meaning.
	NumPlanPhases
)

// String names the phase; these strings are the external identifiers.
func (p PlanPhase) String() string {
	switch p {
	case PhaseTreeGrowth:
		return "tree-growth"
	case PhaseVariantScore:
		return "variant-score"
	case PhaseLowering:
		return "lowering"
	case PhaseNICompile:
		return "ni-compile"
	case PhaseCacheLookup:
		return "cache-lookup"
	case PhaseValidate:
		return "validate"
	case PhaseDecode:
		return "decode"
	}
	return "unknown"
}

// PlanCounters are the monotone counters a phase accumulates. Which
// fields are meaningful depends on the phase; unused fields stay zero.
// The planner keeps these as plain struct fields on its scratch state, so
// counting costs an integer add whether or not an observer is attached.
type PlanCounters struct {
	// Steps is the number of construction time steps completed
	// (tree-growth) — fresh-topology rounds of Algorithm 1 line 6.
	Steps int64 `json:"steps,omitempty"`

	// TreesGrown is the number of schedule trees grown to full
	// membership.
	TreesGrown int64 `json:"trees_grown,omitempty"`

	// NodesAttached is the number of (tree, node) attachments made — the
	// unit of tree-growth progress; the total is trees x (nodes-1).
	NodesAttached int64 `json:"nodes_attached,omitempty"`

	// Searches counts BFS child searches attempted (Algorithm 1 line 10
	// turns); SearchMisses counts the searches that found no free path —
	// the conflict-set rejections that make dense steps expensive.
	Searches     int64 `json:"searches,omitempty"`
	SearchMisses int64 `json:"search_misses,omitempty"`

	// LinksScanned counts directed links examined across all searches;
	// on switchless fabrics with full membership, where the search walks
	// a tree's candidate-link list, it counts the candidate entries
	// examined. LinkConflicts counts links (or candidates) skipped because
	// another tree had already claimed them within the step — the
	// link-occupancy contention that drives SearchMisses.
	LinksScanned  int64 `json:"links_scanned,omitempty"`
	LinkConflicts int64 `json:"link_conflicts,omitempty"`

	// LinksAllocated counts links claimed for tree edges (path hops).
	LinksAllocated int64 `json:"links_allocated,omitempty"`

	// Transfers is the number of schedule transfers emitted (lowering) or
	// validated (validate).
	Transfers int64 `json:"transfers,omitempty"`

	// DepEdges/PathHops count the dependency edges and pinned path hops
	// emitted with those transfers (lowering) — together they are the
	// lowering output size the arena allocator provisions.
	DepEdges int64 `json:"dep_edges,omitempty"`
	PathHops int64 `json:"path_hops,omitempty"`

	// TableEntries is the number of NI schedule-table entries compiled
	// (ni-compile).
	TableEntries int64 `json:"table_entries,omitempty"`

	// CacheHits/CacheMisses count plan-cache probes (cache-lookup) that
	// returned a validated schedule / fell through to a build; CacheBytes
	// is the IR bytes moved for them (read on hits, written on store).
	CacheHits   int64 `json:"cache_hits,omitempty"`
	CacheMisses int64 `json:"cache_misses,omitempty"`
	CacheBytes  int64 `json:"cache_bytes,omitempty"`

	// SummaryValidations/FullValidations count binary-IR loads accepted by
	// the O(1) validation summary + content hash vs. loads that ran the
	// full ValidateStrict pass (validate).
	SummaryValidations int64 `json:"summary_validations,omitempty"`
	FullValidations    int64 `json:"full_validations,omitempty"`

	// DecodeNanos/VerifyNanos split a binary-IR load's CPU time between
	// reading and decoding the fixed-width records and content-digest
	// verification (decode / validate). Both sum per-worker time, so on a
	// parallel load they can exceed the phase wall.
	DecodeNanos int64 `json:"decode_ns,omitempty"`
	VerifyNanos int64 `json:"verify_ns,omitempty"`

	// MemCacheHits/MemCacheMisses count decoded-plan memory-cache probes
	// (cache-lookup): a hit returns the already-materialized schedule and
	// skips disk and decode entirely.
	MemCacheHits   int64 `json:"mem_cache_hits,omitempty"`
	MemCacheMisses int64 `json:"mem_cache_misses,omitempty"`
}

// Add accumulates other into c.
func (c *PlanCounters) Add(other PlanCounters) {
	c.Steps += other.Steps
	c.TreesGrown += other.TreesGrown
	c.NodesAttached += other.NodesAttached
	c.Searches += other.Searches
	c.SearchMisses += other.SearchMisses
	c.LinksScanned += other.LinksScanned
	c.LinkConflicts += other.LinkConflicts
	c.LinksAllocated += other.LinksAllocated
	c.Transfers += other.Transfers
	c.DepEdges += other.DepEdges
	c.PathHops += other.PathHops
	c.TableEntries += other.TableEntries
	c.CacheHits += other.CacheHits
	c.CacheMisses += other.CacheMisses
	c.CacheBytes += other.CacheBytes
	c.SummaryValidations += other.SummaryValidations
	c.FullValidations += other.FullValidations
	c.DecodeNanos += other.DecodeNanos
	c.VerifyNanos += other.VerifyNanos
	c.MemCacheHits += other.MemCacheHits
	c.MemCacheMisses += other.MemCacheMisses
}

// PlanObserver receives planner lifecycle callbacks. All methods must be
// cheap and must not retain references into planner state. Emit sites
// guard on nil, so attaching no observer keeps planning allocation-free
// and branch-cheap; implementations are responsible for their own
// synchronization (phases of different builds may overlap when a sweep
// plans points in parallel).
type PlanObserver interface {
	// PhaseStart marks a phase beginning. Phases of one build do not
	// nest, but the same phase may run more than once (Auto builds both
	// tree variants) and concurrently across builds.
	PhaseStart(phase PlanPhase)

	// PhaseEnd marks a phase completing — on error paths too — and
	// delivers the counters the phase accumulated.
	PhaseEnd(phase PlanPhase, c PlanCounters)

	// PlanProgress reports coarse within-phase progress: done of total
	// work units (tree-growth: node attachments). Called at step
	// boundaries, roughly O(steps) times per build, never per unit.
	PlanProgress(phase PlanPhase, done, total int64)

	// Pipeline reports completed of total phase executions of the
	// current build, so long builds show "phase 2/6" alongside the
	// within-phase ratio. total is announced up front with completed 0.
	Pipeline(completed, total int)
}

// planMulti fans planner callbacks out to several observers.
type planMulti []PlanObserver

func (m planMulti) PhaseStart(ph PlanPhase) {
	for _, o := range m {
		o.PhaseStart(ph)
	}
}

func (m planMulti) PhaseEnd(ph PlanPhase, c PlanCounters) {
	for _, o := range m {
		o.PhaseEnd(ph, c)
	}
}

func (m planMulti) PlanProgress(ph PlanPhase, done, total int64) {
	for _, o := range m {
		o.PlanProgress(ph, done, total)
	}
}

func (m planMulti) Pipeline(completed, total int) {
	for _, o := range m {
		o.Pipeline(completed, total)
	}
}

// TeePlan combines plan observers, skipping nils: nil for none, the
// observer itself for one, a fan-out for more.
func TeePlan(os ...PlanObserver) PlanObserver {
	var out planMulti
	for _, o := range os {
		if o != nil {
			out = append(out, o)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}

// PhaseProfile is one phase's aggregate in a PlanProfile.
type PhaseProfile struct {
	Phase PlanPhase
	// Runs is how many times the phase executed (Auto builds run
	// tree-growth twice).
	Runs int64
	// WallNanos is the wall-clock time attributed to the phase. When
	// runs of the same phase overlap across goroutines, the union
	// interval is charged once (first start to last end).
	WallNanos int64
	Counters  PlanCounters
}

// PlanProfile is the standard PlanObserver: it aggregates per-phase wall
// time and counters, safe for concurrent use by parallel sweep workers
// sharing one profile. Its callbacks are allocation-free after
// construction, so an attached profile costs a mutex hop at phase and
// step boundaries only (BenchmarkPlanObserverOverhead).
type PlanProfile struct {
	mu     sync.Mutex
	phases [NumPlanPhases]PhaseProfile
	depth  [NumPlanPhases]int   // concurrently-open runs per phase
	openAt [NumPlanPhases]int64 // start of the current open interval

	now func() time.Time // test hook; nil means time.Now
}

// NewPlanProfile returns an empty profile ready to attach as a
// PlanObserver.
func NewPlanProfile() *PlanProfile {
	p := &PlanProfile{}
	for i := range p.phases {
		p.phases[i].Phase = PlanPhase(i)
	}
	return p
}

func (p *PlanProfile) clock() int64 {
	if p.now != nil {
		return p.now().UnixNano()
	}
	return time.Now().UnixNano()
}

// PhaseStart implements PlanObserver.
func (p *PlanProfile) PhaseStart(ph PlanPhase) {
	if ph >= NumPlanPhases {
		return
	}
	t := p.clock()
	p.mu.Lock()
	if p.depth[ph] == 0 {
		p.openAt[ph] = t
	}
	p.depth[ph]++
	p.phases[ph].Runs++
	p.mu.Unlock()
}

// PhaseEnd implements PlanObserver.
func (p *PlanProfile) PhaseEnd(ph PlanPhase, c PlanCounters) {
	if ph >= NumPlanPhases {
		return
	}
	t := p.clock()
	p.mu.Lock()
	p.phases[ph].Counters.Add(c)
	if p.depth[ph] > 0 {
		p.depth[ph]--
		if p.depth[ph] == 0 {
			p.phases[ph].WallNanos += t - p.openAt[ph]
		}
	}
	p.mu.Unlock()
}

// PlanProgress implements PlanObserver. The profile aggregates whole
// phases only; within-phase samples are for live reporters (Progress).
func (p *PlanProfile) PlanProgress(PlanPhase, int64, int64) {}

// Pipeline implements PlanObserver. Like PlanProgress, the pipeline
// position is for live reporters only.
func (p *PlanProfile) Pipeline(int, int) {}

// Phases returns the phases that ran, in pipeline order.
func (p *PlanProfile) Phases() []PhaseProfile {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []PhaseProfile
	for i := range p.phases {
		if p.phases[i].Runs > 0 {
			out = append(out, p.phases[i])
		}
	}
	return out
}

// TotalWallNanos returns the wall time summed over phases. Phases do not
// overlap within one build, so for a single build this is the planning
// wall time; for parallel sweeps it can exceed elapsed time.
func (p *PlanProfile) TotalWallNanos() int64 {
	var tot int64
	for _, ph := range p.Phases() {
		tot += ph.WallNanos
	}
	return tot
}

// Report converts the profile into the RunReport planner section.
func (p *PlanProfile) Report() *PlanReport {
	phases := p.Phases()
	rep := &PlanReport{}
	for _, ph := range phases {
		rep.TotalNanos += ph.WallNanos
	}
	for _, ph := range phases {
		share := 0.0
		if rep.TotalNanos > 0 {
			share = float64(ph.WallNanos) / float64(rep.TotalNanos)
		}
		rep.Phases = append(rep.Phases, PhaseReport{
			Phase:        ph.Phase.String(),
			Runs:         ph.Runs,
			WallNanos:    ph.WallNanos,
			Share:        share,
			PlanCounters: ph.Counters,
		})
	}
	return rep
}

// WriteCSV writes the phase breakdown as CSV: one row per phase that ran,
// with wall time, its share of the planner total, and every counter. This
// is the format of the committed results/plan-profile-*.csv artifacts.
func (p *PlanProfile) WriteCSV(w io.Writer) error {
	rep := p.Report()
	if _, err := fmt.Fprintln(w, "phase,runs,wall_ns,share,steps,trees_grown,nodes_attached,searches,search_misses,links_scanned,link_conflicts,links_allocated,transfers,dep_edges,path_hops,table_entries,cache_hits,cache_misses,cache_bytes,summary_validations,full_validations,decode_ns,verify_ns,mem_cache_hits,mem_cache_misses"); err != nil {
		return err
	}
	for _, ph := range rep.Phases {
		if _, err := fmt.Fprintf(w, "%s,%d,%d,%.4f,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
			ph.Phase, ph.Runs, ph.WallNanos, ph.Share,
			ph.Steps, ph.TreesGrown, ph.NodesAttached,
			ph.Searches, ph.SearchMisses, ph.LinksScanned, ph.LinkConflicts,
			ph.LinksAllocated, ph.Transfers, ph.DepEdges, ph.PathHops, ph.TableEntries,
			ph.CacheHits, ph.CacheMisses, ph.CacheBytes,
			ph.SummaryValidations, ph.FullValidations,
			ph.DecodeNanos, ph.VerifyNanos,
			ph.MemCacheHits, ph.MemCacheMisses); err != nil {
			return err
		}
	}
	return nil
}

// Progress is a live planner progress reporter for long builds: attach it
// as a PlanObserver (Tee it with a PlanProfile to also keep the numbers)
// and a 20-minute mesh-32x32 build reports percent done and an ETA
// instead of appearing hung.
//
// Two output styles, selected by Interactive:
//
//   - Interactive (stderr is a terminal): a single line rewritten in
//     place with \r at most every 100ms, erased cleanly at phase end.
//   - Non-interactive (CI logs, redirected files): plain line-buffered
//     samples at most once every 2s, no control characters.
type Progress struct {
	// W receives the progress output; typically os.Stderr.
	W io.Writer

	// Interactive selects the \r-rewriting single-line style. Leave
	// false when W is not a terminal (cmd tools detect this).
	Interactive bool

	mu            sync.Mutex
	phaseStart    [NumPlanPhases]int64
	lastEmit      int64
	lineOpen      bool // an unterminated \r line is on screen
	pipelineDone  int
	pipelineTotal int

	now func() time.Time // test hook; nil means time.Now
}

// NewProgress returns a progress reporter writing to w in the style
// matching interactive.
func NewProgress(w io.Writer, interactive bool) *Progress {
	return &Progress{W: w, Interactive: interactive}
}

func (p *Progress) clock() int64 {
	if p.now != nil {
		return p.now().UnixNano()
	}
	return time.Now().UnixNano()
}

func (p *Progress) interval() time.Duration {
	if p.Interactive {
		return 100 * time.Millisecond
	}
	return 2 * time.Second
}

// pipeline renders the "phase i/N" suffix; empty until announced.
func (p *Progress) pipeline() string {
	if p.pipelineTotal == 0 {
		return ""
	}
	return fmt.Sprintf(" [phase %d/%d]", p.pipelineDone+1, p.pipelineTotal)
}

// PhaseStart implements PlanObserver.
func (p *Progress) PhaseStart(ph PlanPhase) {
	t := p.clock()
	p.mu.Lock()
	defer p.mu.Unlock()
	if ph < NumPlanPhases {
		p.phaseStart[ph] = t
	}
	if !p.Interactive {
		fmt.Fprintf(p.W, "plan: %s started%s\n", ph, p.pipeline())
	}
}

// PhaseEnd implements PlanObserver.
func (p *Progress) PhaseEnd(ph PlanPhase, c PlanCounters) {
	t := p.clock()
	p.mu.Lock()
	defer p.mu.Unlock()
	var wall time.Duration
	if ph < NumPlanPhases && p.phaseStart[ph] != 0 {
		wall = time.Duration(t - p.phaseStart[ph])
	}
	p.closeLine()
	fmt.Fprintf(p.W, "plan: %s done in %s%s\n", ph, wall.Round(time.Millisecond), p.detail(ph, c))
	p.lastEmit = 0 // next phase's first sample prints immediately
}

// detail summarizes the counters that matter for the phase.
func (p *Progress) detail(ph PlanPhase, c PlanCounters) string {
	switch ph {
	case PhaseTreeGrowth:
		return fmt.Sprintf(" (%d steps, %d attachments, %d searches, %d misses)",
			c.Steps, c.NodesAttached, c.Searches, c.SearchMisses)
	case PhaseLowering:
		return fmt.Sprintf(" (%d transfers, %d dep edges, %d path hops)", c.Transfers, c.DepEdges, c.PathHops)
	case PhaseNICompile:
		return fmt.Sprintf(" (%d table entries)", c.TableEntries)
	case PhaseCacheLookup:
		if c.MemCacheHits > 0 {
			return fmt.Sprintf(" (%d memory hits)", c.MemCacheHits)
		}
		return fmt.Sprintf(" (%d hits, %d misses, %d bytes)", c.CacheHits, c.CacheMisses, c.CacheBytes)
	case PhaseDecode:
		return fmt.Sprintf(" (%d transfers, %s decode cpu)", c.Transfers, time.Duration(c.DecodeNanos).Round(time.Millisecond))
	case PhaseValidate:
		mode := "full"
		if c.SummaryValidations > 0 {
			mode = "summary"
		}
		return fmt.Sprintf(" (%d transfers, %s)", c.Transfers, mode)
	}
	return ""
}

// PlanProgress implements PlanObserver: throttled percent-done with an
// ETA extrapolated from the phase's progress rate so far. Degenerate
// samples stay well-formed: total == 0 reports 0%, done past total is
// clamped to 100% with no ETA, and a completing sample (done >= total)
// bypasses the throttle so the final 100% line always lands before the
// phase's PhaseEnd.
func (p *Progress) PlanProgress(ph PlanPhase, done, total int64) {
	t := p.clock()
	p.mu.Lock()
	defer p.mu.Unlock()
	final := total > 0 && done >= total
	if !final && p.lastEmit != 0 && time.Duration(t-p.lastEmit) < p.interval() {
		return
	}
	p.lastEmit = t
	var elapsed time.Duration
	if ph < NumPlanPhases && p.phaseStart[ph] != 0 {
		elapsed = time.Duration(t - p.phaseStart[ph])
	}
	pct := 0.0
	if total > 0 {
		pct = 100 * float64(done) / float64(total)
		if pct > 100 {
			pct = 100
		}
	}
	eta := ""
	if done > 0 && total > done && elapsed > 0 {
		rem := time.Duration(float64(elapsed) * float64(total-done) / float64(done))
		eta = " eta " + rem.Round(time.Second).String()
	}
	line := fmt.Sprintf("plan: %s %d/%d (%.1f%%)%s elapsed %s%s",
		ph, done, total, pct, p.pipeline(), elapsed.Round(time.Second), eta)
	if p.Interactive {
		// \r-rewrite one line; pad-erase is handled by closeLine at end.
		fmt.Fprintf(p.W, "\r\x1b[K%s", line)
		p.lineOpen = true
		return
	}
	fmt.Fprintln(p.W, line)
}

// Pipeline implements PlanObserver.
func (p *Progress) Pipeline(completed, total int) {
	p.mu.Lock()
	p.pipelineDone, p.pipelineTotal = completed, total
	p.mu.Unlock()
}

// closeLine terminates an open interactive line. Callers hold mu.
func (p *Progress) closeLine() {
	if p.lineOpen {
		fmt.Fprintf(p.W, "\r\x1b[K")
		p.lineOpen = false
	}
}
