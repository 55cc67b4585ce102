package multitree

import (
	"fmt"
	"io"

	"multitree/internal/algorithms"
	"multitree/internal/collective"
	"multitree/internal/network"
	"multitree/internal/obs"
	"multitree/internal/plancache"
)

// Trace is an in-memory recording of one simulated all-reduce: every
// typed event the engines emitted, plus the track metadata (link and node
// names) needed to export it. Obtain one with Schedule.SimulateTraced.
type Trace struct {
	meta obs.TraceMeta
	rec  obs.Recorder
}

// Events returns the number of recorded events.
func (t *Trace) Events() int { return len(t.rec.Events) }

// WriteChromeTrace exports the recording as Chrome-trace JSON: open the
// file in ui.perfetto.dev (or chrome://tracing) to see one timeline track
// per directed link and one per node's NI.
func (t *Trace) WriteChromeTrace(w io.Writer) error {
	return obs.WriteChromeTrace(w, t.meta, t.rec.Events)
}

// WriteLinkStats replays the recording through a metrics collector and
// writes the per-link time-binned utilization CSV (binCycles <= 0 writes
// per-link totals only).
func (t *Trace) WriteLinkStats(w io.Writer, binCycles float64) error {
	m := obs.NewMetrics(binCycles)
	for _, ev := range t.rec.Events {
		m.Emit(ev)
	}
	return m.WriteLinkCSV(w, t.meta.LinkNames)
}

// SimulateTraced runs the schedule like Simulate while recording every
// simulation event, and returns the recording alongside the result. Any
// Tracer/Metrics already set in opt still receive the events too.
func (s *Schedule) SimulateTraced(opt SimOptions) (SimResult, *Trace, error) {
	tr := &Trace{meta: network.TraceMetaFor(s.s, "")}
	opt.Tracer = obs.Tee(opt.Tracer, &tr.rec)
	res, err := s.Simulate(opt)
	if err != nil {
		return SimResult{}, nil, err
	}
	return res, tr, nil
}

// PlanProfile records where a schedule build spends its time: wall time
// and work counters per planner phase (tree growth, variant scoring,
// schedule lowering). Obtain one with NewPlanProfile, build through
// BuildScheduleProfiled, then export the breakdown. A profile may span
// several builds; phases accumulate.
type PlanProfile struct {
	p *obs.PlanProfile
}

// NewPlanProfile returns an empty planner profile.
func NewPlanProfile() *PlanProfile {
	return &PlanProfile{p: obs.NewPlanProfile()}
}

// TotalWallNanos is the wall time attributed to the planner across all
// profiled builds.
func (p *PlanProfile) TotalWallNanos() int64 { return p.p.TotalWallNanos() }

// WriteCSV emits the per-phase breakdown (wall time, share, work
// counters) as CSV — the same format the cmd tools write behind
// -planprofile.
func (p *PlanProfile) WriteCSV(w io.Writer) error { return p.p.WriteCSV(w) }

// Progress returns the planner's coarse position: the pipeline phases
// completed out of the announced total. Safe to poll from another
// goroutine while a profiled build runs.
func (p *PlanProfile) Progress() (completed, total int) { return p.p.PipelineProgress() }

// BuildScheduleProfiled is BuildSchedule reporting phase timings and
// work counters into the profile. The schedule built is byte-identical
// to the unprofiled one; a nil profile is exactly BuildSchedule.
func BuildScheduleProfiled(t *Topology, alg Algorithm, dataBytes int64, p *PlanProfile) (*Schedule, error) {
	return BuildScheduleOptions(t, alg, dataBytes, PlanOptions{Profile: p})
}

// PlanCache is an open content-addressed on-disk cache of built
// schedules: planning a large fabric costs minutes, loading its plan
// back costs milliseconds. Entries are validated against the live
// topology on load, so a stale or corrupt cache can never produce a
// wrong schedule — only a rebuild.
type PlanCache struct {
	c *plancache.Cache
}

// OpenPlanCache opens (creating if needed) a plan-cache directory.
// maxBytes <= 0 leaves the cache uncapped; otherwise least-recently-used
// entries are evicted to hold the cap.
func OpenPlanCache(dir string, maxBytes int64) (*PlanCache, error) {
	c, err := plancache.Open(dir, maxBytes)
	if err != nil {
		return nil, err
	}
	return &PlanCache{c: c}, nil
}

// Dir returns the cache directory.
func (c *PlanCache) Dir() string { return c.c.Dir() }

// PlanCacheStats is a snapshot of a cache's traffic counters.
// SummaryLoads counts hits accepted on the entry's store-time validation
// summary + content hash; FullLoads counts hits that re-ran the complete
// schedule validation (VerifyFull).
type PlanCacheStats struct {
	Hits         int64
	Misses       int64
	BytesRead    int64
	BytesWritten int64
	Evictions    int64
	SummaryLoads int64
	FullLoads    int64
}

// Stats returns the cache's traffic so far.
func (c *PlanCache) Stats() PlanCacheStats {
	s := c.c.Stats()
	return PlanCacheStats(s)
}

// SetVerifyFull makes every subsequent cache hit re-run the complete
// schedule validation pass instead of trusting the entry's store-time
// summary. Call before handing the cache to a build.
func (c *PlanCache) SetVerifyFull(v bool) { c.c.VerifyFull = v }

// PlanMemCache is an in-process LRU of decoded plans, the tier above
// PlanCache: a hit returns the already-materialized schedule and skips
// the disk read, decode, and verification entirely. Keyed by the same
// content address as the on-disk cache, so the two tiers compose.
// Schedules served from it are shared across builds — read-only by
// contract, which every simulator and exporter in this module honors.
type PlanMemCache struct {
	c *plancache.MemCache
}

// NewPlanMemCache returns a decoded-plan cache holding at most maxBytes
// of materialized schedules. maxBytes <= 0 disables it (every probe
// misses), so a handle can be threaded unconditionally.
func NewPlanMemCache(maxBytes int64) *PlanMemCache {
	return &PlanMemCache{c: plancache.NewMemCache(maxBytes)}
}

// PlanMemCacheStats is a snapshot of a decoded-plan cache's counters:
// traffic since creation plus the current resident size.
type PlanMemCacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Bytes     int64
	Entries   int64
}

// Stats returns the cache's traffic and current contents.
func (c *PlanMemCache) Stats() PlanMemCacheStats {
	return PlanMemCacheStats(c.c.Stats())
}

// PlanOptions tunes how BuildScheduleOptions plans: none of its fields
// change the schedule built, only how fast it is produced and what is
// recorded along the way. The zero value is exactly BuildSchedule.
type PlanOptions struct {
	// Workers bounds planner parallelism for algorithms with parallel
	// passes (MultiTree's eccentricities and lowering) and the section
	// decode of cached plans; <= 1 means sequential.
	Workers int

	// Cache, when non-nil, is probed before planning and updated after.
	Cache *PlanCache

	// MemCache, when non-nil, is the decoded-plan tier probed before
	// Cache; both tiers are updated after a build or disk load.
	MemCache *PlanMemCache

	// Profile, when non-nil, accumulates phase timings and work counters
	// (including cache lookups) across builds.
	Profile *PlanProfile
}

// BuildScheduleOptions is BuildSchedule with planner tuning: parallel
// construction, a plan cache, and profiling. The schedule built is
// byte-identical for every option combination.
func BuildScheduleOptions(t *Topology, alg Algorithm, dataBytes int64, opt PlanOptions) (*Schedule, error) {
	elems := int(dataBytes / collective.WordSize)
	if elems < 1 {
		return nil, fmt.Errorf("multitree: data size %d bytes is below one element", dataBytes)
	}
	aopts := algorithms.Options{Workers: opt.Workers}
	if opt.Profile != nil {
		aopts.Observer = opt.Profile.p
	}
	if opt.Cache != nil {
		aopts.Cache = opt.Cache.c
	}
	if opt.MemCache != nil {
		aopts.MemCache = opt.MemCache.c
	}
	s, err := algorithms.Build(t.t, string(alg), elems, aopts)
	if err != nil {
		return nil, err
	}
	return &Schedule{s: s}, nil
}
