// Package cliutil is the plumbing shared by the cmd/ tools: pprof
// profile management, terminal detection for progress output, structured
// run-report writing with strict re-validation, size parsing and output
// file writing.
// Every tool registers the same run flags (RegisterFlags) for the same
// behaviors, so a run report from train-sim validates with the same
// decoder as one from allreduce-bench.
package cliutil

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
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

// ParseSize parses a byte count with an optional KiB, MiB or GiB suffix,
// such as "64", "256KiB" or "1GiB". Negative sizes and sizes past int64
// are rejected.
func ParseSize(s string) (int64, error) {
	num, mult := s, int64(1)
	switch {
	case strings.HasSuffix(s, "KiB"):
		num, mult = strings.TrimSuffix(s, "KiB"), 1<<10
	case strings.HasSuffix(s, "MiB"):
		num, mult = strings.TrimSuffix(s, "MiB"), 1<<20
	case strings.HasSuffix(s, "GiB"):
		num, mult = strings.TrimSuffix(s, "GiB"), 1<<30
	}
	v, err := strconv.ParseInt(strings.TrimSpace(num), 10, 64)
	if err != nil || v < 0 || v > math.MaxInt64/mult {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return v * mult, nil
}

// CheckBin validates a -bin utilization histogram width: 0 selects
// per-link totals, anything else must be a finite width of at least one
// cycle (a sub-cycle width allocates one bin per fraction of a cycle).
func CheckBin(bin float64) error {
	if bin == 0 || (bin >= 1 && !math.IsInf(bin, 1)) {
		return nil
	}
	return fmt.Errorf("-bin %v: want 0 (per-link totals) or a finite width of at least 1 cycle", bin)
}

// WriteFile creates path, lets fn write it, and closes it, exiting the
// tool on any error.
func WriteFile(path string, fn func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := fn(f); err != nil {
		f.Close()
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
}

// ChromeTrace returns the tracer that records a run for a Chrome trace at
// path, and the function that writes the trace once the run is done.
// With an empty path the tracer is nil and the writer does nothing: every
// other export streams through obs.Metrics, so only a Chrome trace holds
// the raw event stream in memory.
func ChromeTrace(path string) (obs.Tracer, func(obs.TraceMeta)) {
	if path == "" {
		return nil, func(obs.TraceMeta) {}
	}
	rec := &obs.Recorder{}
	return rec, func(meta obs.TraceMeta) {
		WriteFile(path, func(w io.Writer) error {
			return obs.WriteChromeTrace(w, meta, rec.Events)
		})
		log.Printf("wrote %s (open in ui.perfetto.dev)", path)
	}
}

// WriteLinkStats writes m's per-link utilization CSV to path, naming the
// links by names; an empty path writes nothing.
func WriteLinkStats(path string, m *obs.Metrics, names []string) {
	if path == "" {
		return
	}
	WriteFile(path, func(w io.Writer) error { return m.WriteLinkCSV(w, names) })
	log.Printf("wrote %s", path)
}

// Config selects the observability surfaces of one tool invocation,
// straight from its flags.
type Config struct {
	Tool, Mode string

	ReportPath  string // -report: structured RunReport JSON
	PlanCSVPath string // -planprofile: planner phase breakdown CSV

	ProgressMode string // -progress: auto, on, off

	CPUProfile, MemProfile string // -cpuprofile / -memprofile

	PlanCacheDir      string // -plan-cache: content-addressed plan cache directory
	PlanCacheMaxBytes int64  // -plan-cache-max-bytes: LRU size cap, <= 0 uncapped
	PlanMemCacheMB    int64  // -plan-mem-cache-mb: in-process decoded-plan LRU cap, <= 0 off
	VerifyPlan        bool   // -verify-plan: full re-validation of cache hits
}

// RegisterFlags declares on fs the run flags every tool shares —
// profiles, the run report, progress and the plan-cache tiers — and
// returns the Config they fill when fs is parsed. Tools add their own
// flags (and set Tool and Mode) on the returned value.
func RegisterFlags(fs *flag.FlagSet) *Config {
	c := &Config{}
	fs.StringVar(&c.CPUProfile, "cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	fs.StringVar(&c.MemProfile, "memprofile", "", "write an allocation profile taken at exit to this file")
	fs.StringVar(&c.ReportPath, "report", "", "write a structured run report (versioned JSON) to this file")
	fs.StringVar(&c.ProgressMode, "progress", "auto", "live planner progress on stderr: auto (terminals only), on, off")
	fs.StringVar(&c.PlanCacheDir, "plan-cache", "", "content-addressed plan cache directory: schedules load from it when present and are stored after a fresh build")
	fs.Int64Var(&c.PlanMemCacheMB, "plan-mem-cache-mb", 0, "in-process decoded-plan cache cap in MiB: repeated builds and loads of one plan skip disk and decode; <= 0 off")
	fs.BoolVar(&c.VerifyPlan, "verify-plan", false, "re-run the full schedule validation pass on plan-cache hits instead of trusting the stored validation summary")
	return c
}

// Run is one invocation's live observability state: the report being
// assembled and the planner profile and progress reporter feeding it.
// Zero-config runs cost nothing: no profile is allocated, PlanObserver
// returns nil, and Finish only stops the (also disabled) profilers.
type Run struct {
	Report   *obs.RunReport
	Profile  *obs.PlanProfile
	Progress *obs.Progress
	Cache    *plancache.Cache
	MemCache *plancache.MemCache

	cfg          Config
	cacheKey     string
	start        time.Time
	startAlloc   uint64
	stopProfiles func()
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
	if cfg.ReportPath != "" || cfg.PlanCSVPath != "" {
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
// builds: the run's observer fan-out, the plan cache, and GOMAXPROCS
// workers for the parallel lowering and plan decode (the schedule built
// is identical at any count; the run report records GOMAXPROCS).
func (r *Run) BuildOptions() algorithms.Options {
	return algorithms.Options{
		Workers:  runtime.GOMAXPROCS(0),
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
func (r *Run) NoteCacheKey(topo *topology.Topology, algorithm string, elems int) {
	if r.Cache == nil {
		return
	}
	spec, _, err := algorithms.Resolve(algorithm)
	if err != nil {
		return
	}
	r.cacheKey = plancache.Key(topo, spec.Name, elems)
}

// ObserveSim records the run's one simulation in the report. Every
// tool simulates at most once per invocation, so the report's sim
// section describes exactly one run.
func (r *Run) ObserveSim(m *obs.Metrics) {
	r.Report.Sim = obs.SimReportFrom(m)
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
// growth), writes the requested artifacts, and stops the profilers.
// Like the profiles, log.Fatal error paths exit before reaching it, so
// reports describe completed runs only.
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
	r.stopProfiles()
	return nil
}
