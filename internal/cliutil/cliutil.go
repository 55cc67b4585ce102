// Package cliutil is the observability plumbing shared by the cmd/
// tools: pprof profile management, terminal detection for progress
// output, structured run-report writing with strict re-validation, and
// the Prometheus metrics listener. Every tool wires the same flags to
// the same behaviors, so a run report from train-sim validates with the
// same decoder as one from allreduce-bench.
package cliutil

import (
	"bytes"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"multitree/internal/algorithms"
	"multitree/internal/collective"
	"multitree/internal/obs"
	"multitree/internal/plancache"
	"multitree/internal/topology"
)

// StartProfiles starts CPU profiling and arranges a heap profile at
// exit, per the requested paths (empty paths disable each). The
// returned stop function is idempotent; note that log.Fatal error paths
// exit without reaching it, so profiles are only written for runs that
// complete.
func StartProfiles(cpuPath, memPath string) (stop func()) {
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
	}
	done := false
	return func() {
		if done {
			return
		}
		done = true
		if cpuPath != "" {
			pprof.StopCPUProfile()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC() // flush recent frees so the profile shows live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}
	}
}

// IsTerminal reports whether f is attached to a character device, i.e.
// an interactive terminal rather than a pipe or file. The progress
// reporter uses this to pick \r-rewriting output over plain lines, so
// CI logs never see control characters.
func IsTerminal(f *os.File) bool {
	st, err := f.Stat()
	return err == nil && st.Mode()&os.ModeCharDevice != 0
}

// ProgressFor maps a -progress flag value to a reporter on stderr:
// "off" (or empty) disables it, "on" forces it, and "auto" enables it
// only when stderr is a terminal. Either way the output style follows
// the terminal check, so a forced-on reporter under CI emits plain
// line-buffered samples.
func ProgressFor(mode string) (*obs.Progress, error) {
	interactive := IsTerminal(os.Stderr)
	switch mode {
	case "", "off":
		return nil, nil
	case "on":
		return obs.NewProgress(os.Stderr, interactive), nil
	case "auto":
		if !interactive {
			return nil, nil
		}
		return obs.NewProgress(os.Stderr, true), nil
	}
	return nil, fmt.Errorf("bad progress mode %q (want auto, on or off)", mode)
}

// ServeMetrics mounts h at /metrics on addr and serves it in the
// background. It fails fast on an unbindable address (instead of dying
// asynchronously mid-run) and returns the resolved URL — useful with
// ":0" — plus a stop function that closes the listener.
func ServeMetrics(addr string, h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("metrics listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", h)
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return fmt.Sprintf("http://%s/metrics", ln.Addr()), func() { srv.Close() }, nil
}

// WriteRunReport validates the report through the strict decoder before
// anything lands on disk, so a tool can never emit a file its own
// validator rejects.
func WriteRunReport(path string, r *obs.RunReport) error {
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		return err
	}
	if _, err := obs.DecodeRunReport(bytes.NewReader(buf.Bytes())); err != nil {
		return fmt.Errorf("generated report fails validation: %w", err)
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// ValidateRunReport strictly decodes the report at path — the CI check
// behind allreduce-bench -validate-report.
func ValidateRunReport(path string) (*obs.RunReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return obs.DecodeRunReport(f)
}

// Config selects the observability surfaces of one tool invocation,
// straight from its flags.
type Config struct {
	Tool, Mode string

	ReportPath  string // -report: structured RunReport JSON
	PlanCSVPath string // -planprofile: planner phase breakdown CSV

	ProgressMode string // -progress: auto, on, off

	MetricsAddr   string        // -metrics-addr: serve Prometheus /metrics
	MetricsLinger time.Duration // -metrics-linger: keep serving after the run

	CPUProfile, MemProfile string // -cpuprofile / -memprofile

	PlanCacheDir      string // -plan-cache: content-addressed plan cache directory
	PlanCacheMaxBytes int64  // -plan-cache-max-bytes: LRU size cap, <= 0 uncapped
	PlanMemCacheMB    int64  // -plan-mem-cache-mb: in-process decoded-plan LRU cap, <= 0 off
	PlanWorkers       int    // -plan-workers: parallel eccentricities + lowering + IR decode, <= 1 sequential
	VerifyPlan        bool   // -verify-plan: full re-validation of cache hits
}

// Run is one invocation's live observability state: the report being
// assembled, the planner profile and progress reporter feeding it, and
// the metrics endpoint scraping it. Zero-config runs cost nothing: no
// profile is allocated, PlanObserver returns nil, and Finish only stops
// the (also disabled) profilers.
type Run struct {
	Report   *obs.RunReport
	Profile  *obs.PlanProfile
	Progress *obs.Progress
	Prom     *obs.PromHandler
	Cache    *plancache.Cache
	MemCache *plancache.MemCache

	cfg          Config
	cacheKey     string
	start        time.Time
	startAlloc   uint64
	stopProfiles func()
	stopMetrics  func()
}

// StartRun wires up the requested surfaces and starts the clocks.
func StartRun(cfg Config) (*Run, error) {
	r := &Run{cfg: cfg, Report: obs.NewRunReport(cfg.Tool, cfg.Mode)}
	r.Report.StartedAt = time.Now().UTC().Format(time.RFC3339)
	r.stopProfiles = StartProfiles(cfg.CPUProfile, cfg.MemProfile)
	p, err := ProgressFor(cfg.ProgressMode)
	if err != nil {
		return nil, err
	}
	r.Progress = p
	// The profile exists only when something consumes it, keeping the
	// default planner path on its proven nil-observer fast path.
	if cfg.ReportPath != "" || cfg.PlanCSVPath != "" || cfg.MetricsAddr != "" {
		r.Profile = obs.NewPlanProfile()
	}
	if cfg.PlanCacheDir != "" {
		c, err := plancache.Open(cfg.PlanCacheDir, cfg.PlanCacheMaxBytes)
		if err != nil {
			r.stopProfiles()
			return nil, err
		}
		c.Log = log.Printf // cache degradations (corrupt entries) stay visible
		c.VerifyFull = cfg.VerifyPlan
		r.Cache = c
		r.Option("plan_cache", cfg.PlanCacheDir)
		if cfg.VerifyPlan {
			r.Option("verify_plan", "true")
		}
	}
	if cfg.PlanMemCacheMB > 0 {
		r.MemCache = plancache.NewMemCache(cfg.PlanMemCacheMB << 20)
		r.Option("plan_mem_cache_mb", fmt.Sprintf("%d", cfg.PlanMemCacheMB))
	}
	if cfg.PlanWorkers > 1 {
		r.Option("plan_workers", fmt.Sprintf("%d", cfg.PlanWorkers))
	}
	if cfg.MetricsAddr != "" {
		r.Prom = obs.NewPromHandler()
		r.Prom.SetPlanProfile(r.Profile)
		url, stop, err := ServeMetrics(cfg.MetricsAddr, r.Prom)
		if err != nil {
			r.stopProfiles()
			return nil, err
		}
		r.stopMetrics = stop
		log.Printf("serving Prometheus metrics on %s", url)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.startAlloc = ms.TotalAlloc
	r.start = time.Now()
	return r, nil
}

// PlanObserver returns the observer to thread into schedule builds: the
// profile and the progress reporter fanned out, or nil when neither is
// active — preserving the planner's zero-cost disabled path.
func (r *Run) PlanObserver() obs.PlanObserver {
	var os []obs.PlanObserver
	if r.Profile != nil {
		os = append(os, r.Profile)
	}
	if r.Progress != nil {
		os = append(os, r.Progress)
	}
	return obs.TeePlan(os...)
}

// BuildOptions returns the planner options to thread into schedule
// builds: the run's observer fan-out, the plan cache, and the worker
// count. Callers set per-build knobs (Chunks) on the
// returned value.
func (r *Run) BuildOptions() algorithms.Options {
	return algorithms.Options{
		Workers:  r.cfg.PlanWorkers,
		Cache:    r.Cache,
		MemCache: r.MemCache,
		Observer: r.PlanObserver(),
	}
}

// ValidationMode names how a single-schedule run obtained its plan:
// "memory" when the decoded-plan cache served it (the plan was verified
// when it entered the process), "summary" or "full" when a disk hit was
// validated that way, "fresh build" when no hit happened (or no cache
// is attached). Meant for one-schedule tools' stdout summaries.
func (r *Run) ValidationMode() string {
	if r.MemCache != nil && r.MemCache.Stats().Hits > 0 {
		return "memory"
	}
	if r.Cache != nil {
		st := r.Cache.Stats()
		switch {
		case st.SummaryLoads > 0:
			return "summary"
		case st.FullLoads > 0:
			return "full"
		}
	}
	return "fresh build"
}

// NoteCacheKey records, for single-schedule runs, the cache key the
// build probed, so the report's plan_cache section names the entry. A
// no-op without a cache or for unknown algorithm names.
func (r *Run) NoteCacheKey(topo *topology.Topology, algorithm string, elems, chunks int) {
	if r.Cache == nil {
		return
	}
	spec, _, err := algorithms.Resolve(algorithm)
	if err != nil {
		return
	}
	r.cacheKey = plancache.Key(topo, spec.Name, elems, chunks)
}

// ObserveSim folds one simulation's metrics into the run: the metrics
// endpoint accumulates the snapshot, and the report keeps the fold of
// every simulation this run performed.
func (r *Run) ObserveSim(m *obs.Metrics) {
	if m == nil {
		return
	}
	if r.Prom != nil {
		r.Prom.ObserveSim(m.Snapshot())
	}
	sr := obs.SimReportFrom(m)
	if r.Report.Sim == nil {
		r.Report.Sim = sr
		return
	}
	acc := r.Report.Sim
	acc.Events += sr.Events
	acc.StepEnters += sr.StepEnters
	if sr.EngineQueueMax > acc.EngineQueueMax {
		acc.EngineQueueMax = sr.EngineQueueMax
	}
	acc.LinkBusyCycles += sr.LinkBusyCycles
	if sr.LinksActive > acc.LinksActive {
		acc.LinksActive = sr.LinksActive
	}
	acc.NIEntriesIssued += sr.NIEntriesIssued
	acc.NIDepsCleared += sr.NIDepsCleared
	acc.NILockstepNOPs += sr.NILockstepNOPs
}

// SetTopology records the fabric a run planned on, fingerprint included
// when a schedule exists to hash.
func (r *Run) SetTopology(t *topology.Topology, s *collective.Schedule) {
	info := &obs.TopologyInfo{Name: t.Name(), Nodes: t.Nodes(), Links: len(t.Links())}
	if s != nil {
		info.Fingerprint = collective.TopologyFingerprint(s.Topo)
	}
	r.Report.Topology = info
}

// Option records one free-form knob in the report (skipping empties),
// so a report names the fault spec or worker count that shaped it.
func (r *Run) Option(key, value string) {
	if value == "" {
		return
	}
	if r.Report.Options == nil {
		r.Report.Options = map[string]string{}
	}
	r.Report.Options[key] = value
}

// Finish seals the report (wall split, planner phases, allocation
// growth), writes the requested artifacts, lingers on the metrics
// endpoint if asked, and stops the profilers. Like the profiles,
// log.Fatal error paths exit before reaching it, so reports describe
// completed runs only.
func (r *Run) Finish() error {
	total := time.Since(r.start).Nanoseconds()
	if r.Report.Wall == nil {
		// The mode recorded no split of its own; attribute at least the
		// profiled planner time.
		r.Report.Wall = &obs.WallSplit{}
		if r.Profile != nil {
			r.Report.Wall.PlanNanos = r.Profile.TotalWallNanos()
		}
	}
	r.Report.Wall.TotalNanos = total
	if r.Profile != nil {
		r.Report.Planner = r.Profile.Report()
	}
	if r.Cache != nil || r.MemCache != nil {
		pc := obs.PlanCacheReport{Key: r.cacheKey}
		if r.Cache != nil {
			st := r.Cache.Stats()
			pc.Dir = r.Cache.Dir()
			pc.Hits = st.Hits
			pc.Misses = st.Misses
			pc.BytesRead = st.BytesRead
			pc.BytesWritten = st.BytesWritten
			pc.Evictions = st.Evictions
			pc.SummaryValidated = st.SummaryLoads
			pc.FullValidated = st.FullLoads
		}
		if r.MemCache != nil {
			mst := r.MemCache.Stats()
			pc.MemHits = mst.Hits
			pc.MemMisses = mst.Misses
			pc.MemEvictions = mst.Evictions
			pc.MemBytes = mst.Bytes
			pc.MemEntries = mst.Entries
		}
		r.Report.PlanCache = &pc
		if r.Prom != nil {
			r.Prom.ObservePlanCache(pc)
		}
	}
	if r.Report.Sim != nil {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		r.Report.Sim.AllocBytes = ms.TotalAlloc - r.startAlloc
	}
	if r.cfg.PlanCSVPath != "" {
		f, err := os.Create(r.cfg.PlanCSVPath)
		if err != nil {
			return err
		}
		if err := r.Profile.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		log.Printf("wrote %s", r.cfg.PlanCSVPath)
	}
	if r.cfg.ReportPath != "" {
		if err := WriteRunReport(r.cfg.ReportPath, r.Report); err != nil {
			return err
		}
		log.Printf("wrote %s", r.cfg.ReportPath)
	}
	if r.stopMetrics != nil {
		if r.cfg.MetricsLinger > 0 {
			log.Printf("metrics endpoint lingering %s for scrapes", r.cfg.MetricsLinger)
			time.Sleep(r.cfg.MetricsLinger)
		}
		r.stopMetrics()
	}
	r.stopProfiles()
	return nil
}
