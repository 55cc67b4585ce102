// Command allreduce-bench regenerates the all-reduce evaluation data of
// the paper: the bandwidth sweeps of Fig. 9 (per-topology CSV), the
// weak-scaling study of Fig. 10, the algorithm comparison of Table I, and
// the head-flit overhead curve of Fig. 2.
//
// Usage:
//
//	allreduce-bench -fig 9a            # 4x4 and 8x8 Torus sweep
//	allreduce-bench -fig 9b            # 4x4 and 8x8 Mesh
//	allreduce-bench -fig 9c            # 16- and 64-node Fat-Tree
//	allreduce-bench -fig 9d            # 32- and 64-node BiGraph
//	allreduce-bench -fig 10            # weak scaling 16..256 nodes
//	allreduce-bench -fig 2             # head-flit overhead
//	allreduce-bench -table1            # measured Table I
//	allreduce-bench -fig 9a -max 64MiB # full-size sweep (slower)
//	allreduce-bench -fig 9a -engine fluid
//
// Fig. 9 sweeps run on a GOMAXPROCS-wide worker pool (simulations of
// different points are independent); GOMAXPROCS=1 runs them one after
// another. In -json mode every point carries wall_ns, the
// host wall-clock nanoseconds spent building and simulating that point,
// so sweep runs double as simulator-throughput measurements.
//
// -cpuprofile and -memprofile attach runtime/pprof profiles to any mode
// (inspect with go tool pprof), so perf work measures instead of guessing:
//
//	allreduce-bench -fig 9a -engine fluid -cpuprofile cpu.out
//
// Every mode can emit a structured run report and a planner phase
// breakdown:
//
//	allreduce-bench -algo multitree -topo mesh-16x16 -report run.json
//	allreduce-bench -algo multitree -topo mesh-16x16 -planprofile phases.csv
//	allreduce-bench -validate-report run.json
//
// -report writes the versioned multitree-runreport/v5 JSON (environment,
// topology fingerprint, planner phase wall times, engine counters,
// plan-vs-compile-vs-simulate wall split); -validate-report strictly
// re-decodes one and exits non-zero on any deviation. -progress prints
// live planner progress with an ETA on stderr, auto-detecting terminals
// so CI logs get plain line-buffered output.
//
// Planning large fabrics: MultiTree's lowering and the binary-IR chunk
// decode run on GOMAXPROCS goroutines (the schedule is byte-identical for
// every count), and -plan-cache DIR keeps built schedules in a
// content-addressed on-disk cache, so repeat runs load a validated plan
// in milliseconds instead of re-planning for minutes:
//
//	GOMAXPROCS=4 allreduce-bench -algo multitree -topo mesh-32x32 -engine fluid \
//	    -plan-cache ~/.cache/multitree-plans
//
// Single-run observability mode: -algo selects one algorithm on one
// topology and exports what the simulation did.
//
//	allreduce-bench -algo multitree -topo torus4x4 -trace trace.json
//	allreduce-bench -algo ring -topo torus-4x4 -linkstats links.csv -bin 500
//	allreduce-bench -algo multitree -topo mesh-8x8 -steputil steps.csv
//
// -trace writes Chrome-trace JSON (open in ui.perfetto.dev); it is the
// only export that records the run's events in memory. -linkstats writes
// per-link time-binned utilization CSV and -steputil per-step link
// utilization next to the static schedule analysis; both, like the
// printed event count, are streamed from the events as the run emits
// them.
//
// Imported-schedule mode: -schedule loads a versioned schedule IR file
// (written by schedule-dump -export) and runs it through both network
// engines, the float32 correctness interpreter, and — when the schedule
// is tree-structured — the Fig. 5 NI table compiler and Fig. 6 machine.
//
//	allreduce-bench -schedule multitree.json
//	allreduce-bench -schedule multitree.json -json
//
// Fault injection: -faults takes a spec of link/node faults
// (link:3-7@t=5000:down, link:0-1:bw=0.5, link:2-3:lat+100, node:12:down,
// comma-separated). In single-run and -schedule modes the faults activate
// mid-flight inside the engines; with -replan (single-run only) the
// topology is degraded first and the algorithm plans around them.
// -resilience sweeps completion time against the failed-link count on
// -topo, re-planning every algorithm and cross-validating both engines:
//
//	allreduce-bench -algo multitree -topo torus-4x4 -faults link:0-1:bw=0.5
//	allreduce-bench -algo multitree -topo torus-4x4 -faults link:0-1:down -replan
//	allreduce-bench -schedule multitree.json -faults link:0-1@t=5000:down
//	allreduce-bench -resilience -topo torus-4x4 -maxfail 2 -seed 42
//
// Output is CSV on stdout; -json switches the single-run, Fig. 9,
// -schedule and -resilience modes to machine-readable JSON.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"multitree/internal/algorithms"
	"multitree/internal/cliutil"
	"multitree/internal/collective"
	"multitree/internal/experiments"
	"multitree/internal/faults"
	"multitree/internal/network"
	"multitree/internal/ni"
	"multitree/internal/obs"
	"multitree/internal/topology"
	"multitree/internal/topospec"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("allreduce-bench: ")
	var (
		fig    = flag.String("fig", "", "figure to regenerate: 2, 9a, 9b, 9c, 9d, 10")
		table1 = flag.Bool("table1", false, "emit the measured Table I comparison")
		maxSz  = flag.String("max", "8MiB", "largest all-reduce size for Fig. 9 (the paper uses 64MiB)")
		engine = flag.String("engine", "", "simulation engine: packet (default for Fig. 9) or fluid")
		topos  = flag.String("topos", "", "comma-separated topology overrides, e.g. torus-4x4,mesh-8x8")

		algo      = flag.String("algo", "", "single-run mode: algorithm ("+strings.Join(algorithms.Names(), ", ")+"; append -msg for message-based flow control)")
		topo      = flag.String("topo", "torus-4x4", "single-run mode: topology spec ("+topospec.Usage()+")")
		size      = flag.String("size", "1MiB", "single-run mode: all-reduce data size")
		traceOut  = flag.String("trace", "", "single-run mode: write Chrome-trace JSON (ui.perfetto.dev) to this file")
		linkstats = flag.String("linkstats", "", "single-run mode: write per-link binned utilization CSV, streamed from the run's events, to this file")
		steputil  = flag.String("steputil", "", "single-run mode: write per-step link utilization CSV (streamed from the run's events vs the static schedule) to this file")
		bin       = flag.Float64("bin", 1000, "single-run mode: utilization histogram bin width in cycles (>= 1; 0 writes per-link totals)")

		schedFile = flag.String("schedule", "", "run a schedule IR file (schedule-dump -export) through both engines, the correctness interpreter and the NI compiler")
		jsonOut   = flag.Bool("json", false, "emit JSON instead of CSV (single-run, Fig. 9 and -schedule modes)")

		faultSpec  = flag.String("faults", "", "fault spec, e.g. link:3-7@t=5000:down,link:0-1:bw=0.5,node:12:down; injected mid-flight in single-run and -schedule modes, or re-planned around with -replan")
		replan     = flag.Bool("replan", false, "single-run mode: degrade the topology with -faults before planning, so the algorithm routes around the faults instead of hitting them mid-flight")
		resilience = flag.Bool("resilience", false, "sweep completion time vs failed-link count on -topo, re-planning every algorithm on both engines")
		maxFail    = flag.Int("maxfail", 2, "resilience mode: largest failed-link count")
		seed       = flag.Int64("seed", 42, "resilience mode: seed for the deterministic failed-link draw")

		planCacheMax = flag.String("plan-cache-max-bytes", "", "evict least-recently-used plan-cache entries above this size (e.g. 256MiB); empty or 0 leaves the cache uncapped")
		validatePath = flag.String("validate-report", "", "strictly validate a run report file and exit (the CI check)")
	)
	cfg := cliutil.RegisterFlags(flag.CommandLine)
	flag.StringVar(&cfg.PlanCSVPath, "planprofile", "", "write the planner phase-profile CSV to this file")
	flag.Parse()

	if *validatePath != "" {
		rep, err := cliutil.ValidateRunReport(*validatePath)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: valid %s (tool %s, mode %s)\n", *validatePath, rep.Schema, rep.Tool, rep.Mode)
		return
	}

	if err := cliutil.CheckBin(*bin); err != nil {
		log.Fatal(err)
	}
	var mode string
	switch {
	case *resilience:
		mode = "resilience"
	case *schedFile != "":
		mode = "schedule"
	case *algo != "":
		mode = "single"
	case *table1:
		mode = "table1"
	case *fig != "":
		mode = "fig" + *fig
	default:
		flag.Usage()
		os.Exit(2)
	}
	if *planCacheMax != "" {
		v, err := cliutil.ParseSize(*planCacheMax)
		if err != nil {
			log.Fatal(err)
		}
		cfg.PlanCacheMaxBytes = v
	}
	cfg.Tool, cfg.Mode = "allreduce-bench", mode
	run, err := cliutil.StartRun(*cfg)
	if err != nil {
		log.Fatal(err)
	}

	switch {
	case *resilience:
		runResilience(*topo, *size, *maxFail, *seed, *jsonOut, run)
	case *schedFile != "":
		runSchedule(*schedFile, *faultSpec, *jsonOut, run)
	case *algo != "":
		runSingle(*algo, *topo, *size, *engine, *faultSpec, *replan, *traceOut, *linkstats, *steputil, *bin, *jsonOut, run)
	case *table1:
		runTable1(*topos)
	case *fig == "2":
		fmt.Println("payload_bytes,head_flit_overhead")
		for _, p := range experiments.Fig2() {
			fmt.Printf("%d,%.4f\n", p.PayloadBytes, p.Overhead)
		}
	case strings.HasPrefix(*fig, "9"):
		runFig9(*fig, *topos, *maxSz, *engine, *jsonOut, run)
	case *fig == "10":
		runFig10()
	default:
		log.Fatalf("unknown figure %q", *fig)
	}
	if err := run.Finish(); err != nil {
		log.Fatal(err)
	}
}

// engineReport is one network engine's verdict on an imported schedule.
type engineReport struct {
	Cycles        uint64  `json:"cycles"`
	BandwidthGBps float64 `json:"bandwidth_gbps"`
}

// niReport records whether the imported schedule has a Fig. 5 table
// encoding; ring- and HDRM-style schedules do not, and Reason says why.
type niReport struct {
	Compiled    bool   `json:"compiled"`
	IssueRounds int    `json:"issue_rounds,omitempty"`
	Reason      string `json:"reason,omitempty"`
}

// scheduleReport is the full -schedule mode result.
type scheduleReport struct {
	File      string       `json:"file"`
	Algorithm string       `json:"algorithm"`
	Topology  string       `json:"topology"`
	Nodes     int          `json:"nodes"`
	DataBytes int64        `json:"data_bytes"`
	Transfers int          `json:"transfers"`
	Fluid     engineReport `json:"fluid"`
	Packet    engineReport `json:"packet"`
	Correct   bool         `json:"correct"`
	NITables  niReport     `json:"ni_tables"`
}

// runSchedule imports a schedule IR file and gives it the same treatment
// an in-process build gets: both network engines with the Table III
// default link configuration, the float32 all-reduce interpreter over
// ramp inputs, and an NI table-compilation attempt with a Fig. 6 machine
// replay when it succeeds. Validation (DAG shape, link existence, flow
// coverage, topology fingerprint) already happened inside Import.
func runSchedule(path, faultSpec string, jsonOut bool, run *cliutil.Run) {
	start := time.Now()
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	s, err := collective.Import(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	imported := time.Now()
	plan, err := faults.ParseSpec(faultSpec)
	if err != nil {
		log.Fatal(err)
	}
	dataBytes := int64(s.Elems) * collective.WordSize
	rep := scheduleReport{
		File:      path,
		Algorithm: s.Algorithm,
		Topology:  s.Topo.Name(),
		Nodes:     s.Topo.Nodes(),
		DataBytes: dataBytes,
		Transfers: len(s.Transfers),
	}
	run.SetTopology(s.Topo, s)
	run.Report.Algorithm = s.Algorithm
	run.Report.DataBytes = dataBytes
	run.Option("schedule", path)
	run.Option("faults", faultSpec)
	cfg := network.DefaultConfig()
	if !plan.Empty() {
		cfg.Faults = plan
	}
	var met *obs.Metrics
	if run.Profile != nil {
		met = obs.NewMetrics(0)
		cfg.Tracer = met
	}
	simStart := time.Now()
	fl, err := network.SimulateFluid(s, cfg)
	if err != nil {
		log.Fatal(err)
	}
	rep.Fluid = engineReport{uint64(fl.Cycles), fl.BandwidthBytesPerCycle(dataBytes)}
	pk, err := network.SimulatePackets(s, cfg)
	if err != nil {
		log.Fatal(err)
	}
	rep.Packet = engineReport{uint64(pk.Cycles), pk.BandwidthBytesPerCycle(dataBytes)}
	simNanos := time.Since(simStart).Nanoseconds()
	run.ObserveSim(met)
	if err := collective.VerifyAllReduce(s, collective.RampInputs(s.Topo.Nodes(), s.Elems)); err != nil {
		log.Fatalf("imported schedule fails all-reduce correctness: %v", err)
	}
	rep.Correct = true
	niStart := time.Now()
	if tables, err := ni.CompileScheduleObserved(s, run.PlanObserver()); err != nil {
		rep.NITables = niReport{Reason: err.Error()}
	} else {
		rounds, err := ni.NewMachine(tables, len(s.Flows)).Run()
		if err != nil {
			log.Fatal(err)
		}
		rep.NITables = niReport{Compiled: true, IssueRounds: rounds}
	}
	run.Report.Wall = &obs.WallSplit{
		CompileNanos:  imported.Sub(start).Nanoseconds() + time.Since(niStart).Nanoseconds(),
		SimulateNanos: simNanos,
	}
	if jsonOut {
		emitJSON(rep)
		return
	}
	fmt.Printf("schedule %s: %s on %s (%d nodes, %d transfers, %d bytes)\n",
		path, rep.Algorithm, rep.Topology, rep.Nodes, rep.Transfers, dataBytes)
	fmt.Println("engine,data_bytes,cycles,bandwidth_gbps")
	fmt.Printf("fluid,%d,%d,%.3f\n", dataBytes, rep.Fluid.Cycles, rep.Fluid.BandwidthGBps)
	fmt.Printf("packet,%d,%d,%.3f\n", dataBytes, rep.Packet.Cycles, rep.Packet.BandwidthGBps)
	fmt.Println("correctness: all-reduce verified over float32 ramp inputs")
	if rep.NITables.Compiled {
		fmt.Printf("ni tables: compiled, machine completed in %d issue rounds\n", rep.NITables.IssueRounds)
	} else {
		fmt.Printf("ni tables: no Fig. 5 encoding: %s\n", rep.NITables.Reason)
	}
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		log.Fatal(err)
	}
}

// runSingle traces one (algorithm, topology, size) run and exports the
// requested artifacts. The packet engine is the default here for the same
// reason as Fig. 9: its per-packet link occupancy gives the most honest
// timelines; -engine fluid selects the flow-level engine.
func runSingle(algo, topoSpec, size, engineName, faultSpec string, replan bool, traceOut, linkstats, steputil string, bin float64, jsonOut bool, run *cliutil.Run) {
	topo, err := topospec.Parse(topoSpec)
	if err != nil {
		log.Fatal(err)
	}
	dataBytes, err := cliutil.ParseSize(size)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := faults.ParseSpec(faultSpec)
	if err != nil {
		log.Fatal(err)
	}
	if replan && plan.Empty() {
		log.Fatal("-replan needs a -faults spec to plan around")
	}
	if replan {
		// Topology-layer faults: plan the collective on the degraded fabric
		// so routes avoid the failed links by construction.
		deg, err := faults.Apply(topo, plan)
		if err != nil {
			log.Fatal(err)
		}
		topo = deg.Topo
		plan = nil // already baked into the degraded view
	}
	alg := experiments.AlgSpec{Name: algo, Msg: strings.HasSuffix(algo, "-msg")}
	engine, err := experiments.ParseEngine(engineName)
	if err != nil {
		log.Fatal(err)
	}
	if plan.Empty() {
		plan = nil
	}
	rec, writeTrace := cliutil.ChromeTrace(traceOut)
	tr, err := experiments.TraceAllReduce(topo, alg, dataBytes, engine, bin, plan, rec, run.BuildOptions())
	if err != nil {
		log.Fatal(err)
	}
	p := tr.Point
	run.SetTopology(topo, tr.Sched)
	run.NoteCacheKey(topo, algo, int(dataBytes/collective.WordSize))
	run.Report.Algorithm = algo
	run.Report.DataBytes = dataBytes
	run.Report.Engine = engine.String()
	run.Option("faults", faultSpec)
	if replan {
		run.Option("replan", "true")
	}
	run.ObserveSim(tr.Metrics)
	if run.Report.Sim != nil {
		run.Report.Sim.Engine = engine.String()
		run.Report.Sim.Cycles = p.Cycles
		run.Report.Sim.BandwidthGBps = p.BandwidthGBps
	}
	run.Report.Wall = &obs.WallSplit{
		PlanNanos:     p.PlanNanos,
		SimulateNanos: p.WallNanos - p.PlanNanos,
	}
	if jsonOut {
		emitJSON(struct {
			experiments.AllReducePoint
			Engine string `json:"engine"`
			Events int64  `json:"events"`
		}{p, engine.String(), tr.Metrics.Events()})
	} else {
		fmt.Println("topology,algorithm,engine,data_bytes,cycles,bandwidth_gbps,events")
		fmt.Printf("%s,%s,%s,%d,%d,%.3f,%d\n",
			p.Topology, p.Algorithm, engine, p.DataBytes, p.Cycles, p.BandwidthGBps, tr.Metrics.Events())
	}

	writeTrace(tr.Meta)
	cliutil.WriteLinkStats(linkstats, tr.Metrics, tr.Meta.LinkNames)
	if steputil != "" {
		cliutil.WriteFile(steputil, func(w io.Writer) error {
			return writeStepUtil(w, tr)
		})
		log.Printf("wrote %s", steputil)
	}
}

// writeStepUtil emits per-step link utilization two ways: folded by the
// run's metrics from its link-acquired events, and statically from the
// schedule's per-step link sets. The two columns must agree — the static
// number is the paper's Fig. 3/4 utilization metric.
func writeStepUtil(w io.Writer, tr *experiments.TracedResult) error {
	traced := tr.Metrics.StepLinkUtilization(len(tr.Sched.Topo.Links()))
	static := collective.StepUtilization(tr.Sched)
	if _, err := fmt.Fprintln(w, "step,trace_util,static_util"); err != nil {
		return err
	}
	for step := 1; step < len(static) || step < len(traced); step++ {
		var t, s float64
		if step < len(traced) {
			t = traced[step]
		}
		if step < len(static) {
			s = static[step]
		}
		if _, err := fmt.Fprintf(w, "%d,%.4f,%.4f\n", step, t, s); err != nil {
			return err
		}
	}
	return nil
}

func runFig9(fig, topoOverride, maxSz, engineName string, jsonOut bool, run *cliutil.Run) {
	specs := map[string][]string{
		"9a": {"torus-4x4", "torus-8x8"},
		"9b": {"mesh-4x4", "mesh-8x8"},
		"9c": {"fattree-16", "fattree-64"},
		"9d": {"bigraph-32", "bigraph-64"},
	}[fig]
	if specs == nil {
		log.Fatalf("unknown figure %q", fig)
	}
	if topoOverride != "" {
		specs = strings.Split(topoOverride, ",")
	}
	maxBytes, err := cliutil.ParseSize(maxSz)
	if err != nil {
		log.Fatal(err)
	}
	// The packet engine is the reference for Fig. 9: it captures the
	// congestion trees that make DBTree and Mesh 2D-Ring collapse at
	// large sizes (§VI-A); the fluid engine is faster but optimistic for
	// those two cases.
	engine, err := experiments.ParseEngine(engineName)
	if err != nil {
		log.Fatal(err)
	}
	run.Report.Engine = engine.String()
	run.Option("topos", strings.Join(specs, ","))
	run.Option("max", maxSz)
	// The sweep pool already uses every core, so each point builds on
	// one planner worker.
	opts := run.BuildOptions()
	opts.Workers = 1
	var all []experiments.AllReducePoint
	if !jsonOut {
		fmt.Println("topology,algorithm,data_bytes,cycles,bandwidth_gbps")
	}
	for _, spec := range specs {
		topo, err := topospec.Parse(spec)
		if err != nil {
			log.Fatal(err)
		}
		points, err := experiments.Fig9(topo, experiments.Fig9Sizes(maxBytes), engine, opts)
		if err != nil {
			log.Fatal(err)
		}
		for _, p := range points {
			run.Report.Points = append(run.Report.Points, obs.ReportPoint{
				Topology:      p.Topology,
				Algorithm:     p.Algorithm,
				DataBytes:     p.DataBytes,
				Cycles:        p.Cycles,
				BandwidthGBps: p.BandwidthGBps,
				WallNanos:     p.WallNanos,
				PlanNanos:     p.PlanNanos,
			})
		}
		if jsonOut {
			all = append(all, points...)
			continue
		}
		for _, p := range points {
			fmt.Printf("%s,%s,%d,%d,%.3f\n", p.Topology, p.Algorithm, p.DataBytes, p.Cycles, p.BandwidthGBps)
		}
	}
	if jsonOut {
		emitJSON(all)
	}
}

// runResilience sweeps completion time against the number of failed
// links on one topology: deterministic connectivity-preserving failure
// draws, every algorithm re-planned on the degraded fabric, both engines.
func runResilience(topoSpec, size string, maxFail int, seed int64, jsonOut bool, run *cliutil.Run) {
	topo, err := topospec.Parse(topoSpec)
	if err != nil {
		log.Fatal(err)
	}
	dataBytes, err := cliutil.ParseSize(size)
	if err != nil {
		log.Fatal(err)
	}
	run.SetTopology(topo, nil)
	run.Report.DataBytes = dataBytes
	run.Option("maxfail", strconv.Itoa(maxFail))
	run.Option("seed", strconv.FormatInt(seed, 10))
	points, err := experiments.Resilience(topo, maxFail, seed, dataBytes)
	if err != nil {
		log.Fatal(err)
	}
	if jsonOut {
		emitJSON(points)
		return
	}
	fmt.Println("topology,failed_links,algorithm,engine,data_bytes,cycles,bandwidth_gbps,supported,note")
	for _, p := range points {
		fmt.Printf("%s,%d,%s,%s,%d,%d,%.3f,%v,%s\n",
			p.Topology, p.FailedLinks, p.Algorithm, p.Engine, p.DataBytes,
			p.Cycles, p.BandwidthGBps, p.Supported, p.Note)
	}
}

func runFig10() {
	points, err := experiments.Fig10(topospec.TorusFor, []int{16, 32, 64, 128, 256})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("nodes,algorithm,data_bytes,cycles,normalized_to_ring16")
	for _, p := range points {
		fmt.Printf("%d,%s,%d,%d,%.3f\n", p.Nodes, p.Algorithm, p.DataBytes, p.Cycles, p.Normalized)
	}
}

func runTable1(topoOverride string) {
	specs := []string{"torus-8x8", "mesh-8x8", "fattree-16", "bigraph-32"}
	if topoOverride != "" {
		specs = strings.Split(topoOverride, ",")
	}
	var topos []*topology.Topology
	for _, s := range specs {
		t, err := topospec.Parse(s)
		if err != nil {
			log.Fatal(err)
		}
		topos = append(topos, t)
	}
	rows, err := experiments.Table1(topos, 1<<20)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("algorithm,topology,steps,bandwidth_overhead,max_link_overlap,max_hops,contention_free")
	for _, r := range rows {
		fmt.Printf("%s,%s,%d,%.2f,%d,%d,%v\n",
			r.Algorithm, r.Topology, r.Steps, r.BandwidthOverhead, r.MaxLinkOverlap, r.MaxHops,
			r.MaxLinkOverlap <= 1)
	}
}
