// Command schedule-dump renders the worked examples of the paper's §III
// and §IV: the MultiTree construction walkthrough of Fig. 3 (per-step link
// allocation and the resulting reduce-scatter/all-gather trees), the ring
// and double-binary-tree schedules of Fig. 4, and the per-accelerator NI
// schedule tables of Fig. 5.
//
// Usage:
//
//	schedule-dump                    # Fig. 3 walkthrough on the 2x2 Mesh
//	schedule-dump -topo torus-4x4    # any topology
//	schedule-dump -tables            # include the Fig. 5 NI tables
//	schedule-dump -baselines         # include the Fig. 4 ring/dbtree views
//
// Observability: -trace simulates the MultiTree schedule under tracing
// and also drives the Fig. 6 NI machine over the compiled tables, so the
// exported Chrome-trace JSON carries both the link timelines (cycle
// domain) and the NI table-walk instants (issue-round domain).
//
//	schedule-dump -topo torus-4x4 -trace trace.json -linkstats links.csv
//
// Export mode writes any registered algorithm's schedule as a versioned
// IR JSON file that allreduce-bench -schedule can run:
//
//	schedule-dump -topo torus-4x4 -algo multitree -size 1MiB -export mt.json
//
// With -faults the export re-plans on the degraded fabric, writing a
// schedule that routes around the failed hardware; a spec that
// disconnects the topology fails with a non-zero exit:
//
//	schedule-dump -topo torus-4x4 -algo multitree -faults link:3-7:down -export mt-deg.json
//
// The shared observability flags of allreduce-bench also apply here:
// -report writes the versioned run report, -planprofile the planner
// phase CSV, -progress live planner progress on stderr, and
// -cpuprofile/-memprofile the pprof profiles. So do the planner-scaling
// flags: -plan-workers N runs the planner's eccentricity and lowering
// passes in parallel (the schedule is byte-identical for every count),
// and -plan-cache DIR makes -export load a previously built schedule
// from the content-addressed cache instead of re-planning it. Warm loads scale too: -plan-workers also fans the
// binary-IR section decode across cores, -plan-mem-cache-mb N keeps
// decoded plans in process so repeats skip disk entirely, and
// -warm-loads N replays the load through the cache tiers to measure it.
//
//	schedule-dump -topo mesh-32x32 -algo multitree -plan-cache /tmp/plans -export mt.json
//	schedule-dump -topo mesh-64x64 -algo multitree -plan-cache /tmp/plans \
//	    -plan-workers 8 -plan-mem-cache-mb 4096 -warm-loads 2 -export mt.plan
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"multitree/internal/algorithms"
	_ "multitree/internal/algorithms/all"
	"multitree/internal/cliutil"
	"multitree/internal/collective"
	"multitree/internal/core"
	"multitree/internal/dbtree"
	"multitree/internal/faults"
	"multitree/internal/network"
	"multitree/internal/ni"
	"multitree/internal/obs"
	"multitree/internal/ring"
	"multitree/internal/topology"
	"multitree/internal/topospec"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("schedule-dump: ")
	var (
		topoStr   = flag.String("topo", "mesh-2x2", "topology spec ("+topospec.Usage()+")")
		tables    = flag.Bool("tables", false, "print the Fig. 5 NI schedule tables")
		baselines = flag.Bool("baselines", false, "print the Fig. 4 ring and double-binary-tree schedules")
		util      = flag.Bool("util", false, "print per-step link-utilization charts for every algorithm")

		traceOut  = flag.String("trace", "", "write a Chrome-trace JSON of the MultiTree schedule (links + NI machine)")
		linkstats = flag.String("linkstats", "", "write per-link binned utilization CSV of the MultiTree schedule")
		bin       = flag.Float64("bin", 100, "utilization histogram bin width in cycles for -linkstats")

		algo      = flag.String("algo", "multitree", "algorithm for -export ("+strings.Join(algorithms.Names(), ", ")+")")
		size      = flag.String("size", "1MiB", "all-reduce data size for -export")
		export    = flag.String("export", "", "write the -algo schedule as a versioned IR file and exit (.plan extension selects the compact binary IR; anything else the JSON interchange IR)")
		faultSpec = flag.String("faults", "", "fault spec for -export; re-plan on the degraded fabric (e.g. link:3-7:down,node:12:down)")

		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProfile   = flag.String("memprofile", "", "write an allocation profile taken at exit to this file")
		reportPath   = flag.String("report", "", "write a structured run report (versioned JSON) to this file")
		planCSV      = flag.String("planprofile", "", "write the planner phase-profile CSV to this file")
		progressMode = flag.String("progress", "auto", "live planner progress on stderr: auto (terminals only), on, off")
		planCache    = flag.String("plan-cache", "", "content-addressed plan cache directory for -export: schedules load from it when present and are stored after a fresh build")
		planMemMB    = flag.Int64("plan-mem-cache-mb", 0, "in-process decoded-plan cache cap in MiB: repeated loads of one plan skip disk and decode entirely; <= 0 off")
		warmLoads    = flag.Int("warm-loads", 0, "after -export, re-load the plan this many more times through the cache tiers (exercises warm serving; counts land in the run report)")
		planWorkers  = flag.Int("plan-workers", 1, "planner workers for MultiTree's eccentricity and lowering passes (tree growth stays sequential) and section-decode workers for binary-IR plan loads; the schedule built is identical for every value")
		verifyPlan   = flag.Bool("verify-plan", false, "re-run the full schedule validation pass on plan-cache hits instead of trusting the stored validation summary")
	)
	flag.Parse()

	topo, err := topospec.Parse(*topoStr)
	if err != nil {
		log.Fatal(err)
	}

	mode := "walkthrough"
	if *export != "" {
		mode = "export"
	}
	run, err := cliutil.StartRun(cliutil.Config{
		Tool: "schedule-dump", Mode: mode,
		ReportPath: *reportPath, PlanCSVPath: *planCSV,
		ProgressMode: *progressMode,
		CPUProfile:   *cpuProfile, MemProfile: *memProfile,
		PlanCacheDir: *planCache, PlanMemCacheMB: *planMemMB,
		PlanWorkers: *planWorkers, VerifyPlan: *verifyPlan,
	})
	if err != nil {
		log.Fatal(err)
	}

	if *export != "" {
		exportSchedule(topo, *algo, *size, *export, *faultSpec, *warmLoads, run)
		if err := run.Finish(); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *faultSpec != "" {
		log.Fatal("-faults only applies to -export mode; use allreduce-bench -faults to simulate mid-flight faults")
	}
	opts := core.DefaultOptions(topo)
	opts.Observer = run.PlanObserver()
	opts.Workers = *planWorkers
	trees, err := core.BuildTrees(topo, opts)
	if err != nil {
		log.Fatal(err)
	}
	run.SetTopology(topo, nil)

	fmt.Printf("MultiTree construction on %s (%d nodes)\n", topo.Name(), topo.Nodes())
	fmt.Println("\nAll-gather schedule trees (Fig. 3e; edge label tN is the time step):")
	for _, tr := range trees {
		fmt.Println("  " + tr.String())
	}

	sched, err := collective.TreesToScheduleParallel(core.Algorithm, topo, topo.Nodes()*4, trees, *planWorkers, run.PlanObserver())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nReduce-scatter schedule (Fig. 3d; reversed tree edges):")
	printPhase(sched, collective.Reduce)
	fmt.Println("\nAll-gather schedule:")
	printPhase(sched, collective.Gather)

	if *baselines {
		fmt.Println("\nRing all-gather phase (Fig. 4a):")
		printPhase(ring.Build(topo, topo.Nodes()*4), collective.Gather)
		ds, err := dbtree.Build(topo, topo.Nodes()*4, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("\nDouble-binary-tree broadcast (Fig. 4b; odd steps are tree 0, even steps tree 1):")
		printPhase(ds, collective.Gather)
	}

	if *util {
		fmt.Println()
		for _, alg := range []string{"ring", "multitree"} {
			var us *collective.Schedule
			if alg == "ring" {
				us = ring.Build(topo, topo.Nodes()*64)
			} else {
				us, err = collective.TreesToSchedule(core.Algorithm, topo, topo.Nodes()*64, trees)
				if err != nil {
					log.Fatal(err)
				}
			}
			fmt.Println(collective.UtilizationChart(us, 50))
		}
	}

	if *traceOut != "" || *linkstats != "" {
		traceSchedule(topo, trees, *traceOut, *linkstats, *bin)
	}

	if *tables {
		nt, err := ni.CompileObserved(trees, topo.Nodes(), run.PlanObserver())
		if err != nil {
			log.Fatal(err)
		}
		nt.Bind(topo.Nodes()*64, topo.Nodes())
		fmt.Println("\nAll-reduce schedule tables (Fig. 5):")
		for _, tab := range nt.PerNode {
			fmt.Println(tab.String())
		}
		fmt.Printf("hardware overhead: %d bits/entry, %d entries, %d bytes/table\n",
			ni.EntryBits(topo.Nodes()), 2*topo.Nodes(), ni.TableBytes(topo.Nodes()))
	}
	if err := run.Finish(); err != nil {
		log.Fatal(err)
	}
}

// exportSchedule resolves the named algorithm through the registry,
// builds its schedule at the requested size, and writes the versioned IR
// file consumed by allreduce-bench -schedule. A non-empty fault spec
// degrades the topology first, so the exported schedule is the re-plan
// that routes around the failed hardware; a spec that disconnects the
// fabric is a fatal error.
func exportSchedule(topo *topology.Topology, algo, size, path, faultSpec string, warmLoads int, run *cliutil.Run) {
	if faultSpec != "" {
		plan, err := faults.ParseSpec(faultSpec)
		if err != nil {
			log.Fatal(err)
		}
		deg, err := faults.Apply(topo, plan)
		if err != nil {
			log.Fatal(err)
		}
		topo = deg.Topo
	}
	spec, msg, err := algorithms.Resolve(algo)
	if err != nil {
		log.Fatal(err)
	}
	if msg {
		log.Fatalf("%q is a flow-control variant; export the base %q schedule instead", algo, spec.Name)
	}
	if !spec.Supports(topo) {
		log.Fatalf("algorithm %q does not support %s", spec.Name, topo.Name())
	}
	dataBytes, err := parseSize(size)
	if err != nil {
		log.Fatal(err)
	}
	elems := int(dataBytes / collective.WordSize)
	s, err := algorithms.Build(topo, spec.Name, elems, run.BuildOptions())
	if err != nil {
		log.Fatal(err)
	}
	run.SetTopology(topo, s)
	run.NoteCacheKey(topo, spec.Name, elems, 0)
	run.Report.Algorithm = spec.Name
	run.Report.DataBytes = dataBytes
	run.Option("faults", faultSpec)
	run.Option("export", path)
	// A .plan destination writes the compact binary IR — the plan cache's
	// on-disk format, ~10x smaller and ~20x faster to decode than the
	// JSON interchange IR, and the practical choice for byte-identity
	// checks on thousand-node schedules whose JSON would run to
	// gigabytes. Any other extension keeps the JSON interchange IR that
	// allreduce-bench -schedule consumes.
	encode := collective.Export
	if strings.HasSuffix(path, ".plan") {
		encode = collective.ExportBinary
	}
	writeFile(path, func(w io.Writer) error {
		return encode(w, s)
	})
	// -warm-loads replays the build through the cache tiers: the first
	// repeat decodes the on-disk entry (or hits the memory tier when
	// -plan-mem-cache-mb is set), later repeats should be pure memory
	// hits. The counters land in the run report and /metrics, making the
	// warm-serving profile of one plan measurable from the CLI.
	for i := 0; i < warmLoads; i++ {
		if _, err := algorithms.Build(topo, spec.Name, elems, run.BuildOptions()); err != nil {
			log.Fatal(err)
		}
	}
	// The machine-grepable export summary: entity counts plus how the
	// plan was validated ("fresh build", "memory" for a decoded-plan
	// cache hit, or a disk hit accepted on its stored summary vs. the
	// full re-validation pass).
	var deps int64
	for i := range s.Transfers {
		deps += int64(len(s.Transfers[i].Deps))
	}
	fmt.Printf("schedule %s on %s: %d transfers, %d flows, %d dep edges, %d steps, %d data bytes, validation=%s\n",
		s.Algorithm, topo.Name(), len(s.Transfers), len(s.Flows), deps, s.Steps, dataBytes, run.ValidationMode())
	hint := fmt.Sprintf(" (run with allreduce-bench -schedule %s)", path)
	if strings.HasSuffix(path, ".plan") {
		// The binary IR records the topology by fingerprint only, so it
		// cannot be replayed standalone the way the JSON interchange IR can.
		hint = " (binary IR: loadable onto a matching live topology only)"
	}
	log.Printf("wrote %s: %s on %s, %d transfers, %d bytes%s",
		path, s.Algorithm, topo.Name(), len(s.Transfers), dataBytes, hint)
}

// parseSize accepts plain byte counts and KiB/MiB/GiB suffixes.
func parseSize(s string) (int64, error) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "KiB"):
		mult, s = 1<<10, strings.TrimSuffix(s, "KiB")
	case strings.HasSuffix(s, "MiB"):
		mult, s = 1<<20, strings.TrimSuffix(s, "MiB")
	case strings.HasSuffix(s, "GiB"):
		mult, s = 1<<30, strings.TrimSuffix(s, "GiB")
	}
	v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil || v <= 0 {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return v * mult, nil
}

// traceSchedule simulates the MultiTree schedule with the fluid engine
// under tracing, then replays the compiled Fig. 5 tables through the
// Fig. 6 NI machine with the same recorder, so the export shows both the
// network's link timelines and the NIs' table walks.
func traceSchedule(topo *topology.Topology, trees []*collective.Tree, traceOut, linkstats string, bin float64) {
	sched, err := collective.TreesToSchedule(core.Algorithm, topo, topo.Nodes()*64, trees)
	if err != nil {
		log.Fatal(err)
	}
	rec := &obs.Recorder{}
	cfg := network.DefaultConfig()
	cfg.Tracer = rec
	res, err := network.SimulateFluid(sched, cfg)
	if err != nil {
		log.Fatal(err)
	}
	nt, err := ni.Compile(trees, topo.Nodes())
	if err != nil {
		log.Fatal(err)
	}
	m := ni.NewMachine(nt, topo.Nodes())
	m.Trace = rec
	rounds, err := m.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntraced fluid simulation: %d cycles, NI machine: %d issue rounds, %d events\n",
		res.Cycles, rounds, len(rec.Events))
	meta := network.TraceMetaFor(sched, "")
	if traceOut != "" {
		writeFile(traceOut, func(w io.Writer) error {
			return obs.WriteChromeTrace(w, meta, rec.Events)
		})
		log.Printf("wrote %s (open in ui.perfetto.dev)", traceOut)
	}
	if linkstats != "" {
		writeFile(linkstats, func(w io.Writer) error {
			met := obs.NewMetrics(bin)
			for _, ev := range rec.Events {
				met.Emit(ev)
			}
			return met.WriteLinkCSV(w, meta.LinkNames)
		})
		log.Printf("wrote %s", linkstats)
	}
}

func writeFile(path string, fn func(io.Writer) error) {
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

// printPhase lists a schedule's transfers of one opcode grouped by step.
func printPhase(s *collective.Schedule, op collective.Op) {
	lines := map[int][]string{}
	minStep, maxStep := 1<<30, 0
	for i := range s.Transfers {
		tr := &s.Transfers[i]
		if tr.Op != op {
			continue
		}
		lines[tr.Step] = append(lines[tr.Step],
			fmt.Sprintf("n%d->n%d(f%d)", tr.Src, tr.Dst, tr.Flow))
		if tr.Step < minStep {
			minStep = tr.Step
		}
		if tr.Step > maxStep {
			maxStep = tr.Step
		}
	}
	for step := minStep; step <= maxStep; step++ {
		if len(lines[step]) == 0 {
			continue
		}
		fmt.Printf("  step %d:", step)
		for _, l := range lines[step] {
			fmt.Printf(" %s", l)
		}
		fmt.Println()
	}
}
