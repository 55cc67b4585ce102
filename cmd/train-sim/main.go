// Command train-sim regenerates the DNN training evaluation of Fig. 11:
// one data-parallel training iteration of each workload on an 8x8 Torus
// (by default), for every all-reduce algorithm, in the non-overlapped
// (Fig. 11a) and layer-wise overlapped (Fig. 11b) modes.
//
// Usage:
//
//	train-sim                  # Fig. 11a table
//	train-sim -overlap         # Fig. 11b table
//	train-sim -topo torus-4x4  # different system
//	train-sim -csv             # machine-readable output
//
// Observability: -trace / -linkstats export what the network did during
// one model's full-gradient all-reduce (the communication phase of a
// Fig. 11a iteration), using the fluid engine.
//
//	train-sim -model ResNet50 -algo multitree-msg -trace trace.json
//	train-sim -model Transformer -algo ring -linkstats links.csv
//
// The shared observability flags of allreduce-bench also apply here:
// -report writes the versioned run report, -progress live planner
// progress on stderr, and -cpuprofile/-memprofile the pprof profiles —
// as does -plan-cache (content-addressed on-disk schedule cache).
// GOMAXPROCS sets the workers of the parallel lowering and plan-decode
// passes.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"multitree/internal/accel"
	"multitree/internal/algorithms"
	"multitree/internal/cliutil"
	"multitree/internal/collective"
	"multitree/internal/core"
	"multitree/internal/experiments"
	"multitree/internal/model"
	"multitree/internal/network"
	"multitree/internal/topology"
	"multitree/internal/topospec"
	"multitree/internal/training"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("train-sim: ")
	var (
		overlap = flag.Bool("overlap", false, "layer-wise all-reduce overlapped with back-propagation (Fig. 11b)")
		topoStr = flag.String("topo", "torus-8x8", "topology spec")
		csv     = flag.Bool("csv", false, "CSV output instead of a table")
		layers  = flag.String("layers", "", "print the per-layer profile of one model (e.g. -layers ResNet50)")

		modelName = flag.String("model", "ResNet50", "model whose gradient all-reduce to trace")
		algo      = flag.String("algo", "multitree-msg", "algorithm for -trace/-linkstats ("+strings.Join(algorithms.Names(), ", ")+"; -msg variants allowed)")
		traceOut  = flag.String("trace", "", "write a Chrome-trace JSON (ui.perfetto.dev) of the model's gradient all-reduce")
		linkstats = flag.String("linkstats", "", "write per-link binned utilization CSV of the gradient all-reduce")
		bin       = flag.Float64("bin", 1000, "utilization histogram bin width in cycles for -linkstats (>= 1; 0 writes per-link totals)")
	)
	cfg := cliutil.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if err := cliutil.CheckBin(*bin); err != nil {
		log.Fatal(err)
	}
	topo, err := topospec.Parse(*topoStr)
	if err != nil {
		log.Fatal(err)
	}
	mode := "fig11"
	switch {
	case *layers != "":
		mode = "layers"
	case *traceOut != "" || *linkstats != "":
		mode = "trace"
	}
	cfg.Tool, cfg.Mode = "train-sim", mode
	run, err := cliutil.StartRun(*cfg)
	if err != nil {
		log.Fatal(err)
	}
	run.SetTopology(topo, nil)
	finish := func() {
		if err := run.Finish(); err != nil {
			log.Fatal(err)
		}
	}
	if *layers != "" {
		printLayerProfile(topo, *layers, run)
		finish()
		return
	}
	if *traceOut != "" || *linkstats != "" {
		traceGradientAllReduce(topo, *modelName, *algo, *traceOut, *linkstats, *bin, run)
		finish()
		return
	}
	if *overlap {
		run.Option("overlap", "true")
	}
	defer finish()
	rows, err := experiments.Fig11(topo, *overlap)
	if err != nil {
		log.Fatal(err)
	}
	if *csv {
		fmt.Println("model,algorithm,compute_cycles,comm_cycles,exposed_cycles,overlap_cycles,total_cycles,normalized_total,allreduce_speedup_vs_ring")
		for _, r := range rows {
			fmt.Printf("%s,%s,%d,%d,%d,%d,%d,%.3f,%.2f\n",
				r.Model, r.Algorithm, r.Compute, r.Comm, r.Exposed, r.Overlap, r.Total,
				r.NormalizedTotal, r.AllReduceSpeedup)
		}
		return
	}
	label := "non-overlapped (Fig. 11a)"
	if *overlap {
		label = "overlapped, layer-wise all-reduce (Fig. 11b)"
	}
	fmt.Printf("Training-time breakdown on %s, batch 16/node, %s\n\n", topo.Name(), label)
	last := ""
	for _, r := range rows {
		if r.Model != last {
			fmt.Printf("%s\n", r.Model)
			last = r.Model
		}
		fmt.Printf("  %-13s compute %8.2f ms   comm %8.2f ms (exposed %8.2f)   total %8.2f ms   norm %5.2f   AR speedup %4.2fx\n",
			r.Algorithm,
			float64(r.Compute)/1e6, float64(r.Comm)/1e6, float64(r.Exposed)/1e6,
			float64(r.Total)/1e6, r.NormalizedTotal, r.AllReduceSpeedup)
	}
}

// traceGradientAllReduce simulates one model's full-gradient all-reduce
// with the fluid engine under tracing and writes the requested exports.
// This is the communication phase of a non-overlapped (Fig. 11a) training
// iteration; the fluid engine keeps multi-hundred-MiB gradients tractable.
func traceGradientAllReduce(topo *topology.Topology, modelName, algo, traceOut, linkstats string, bin float64, run *cliutil.Run) {
	net, err := model.ByName(modelName)
	if err != nil {
		log.Fatal(err)
	}
	spec, msg, err := algorithms.Resolve(algo)
	if err != nil {
		log.Fatal(err)
	}
	if !spec.Supports(topo) {
		log.Fatalf("algorithm %q does not support %s", spec.Name, topo.Name())
	}
	alg := experiments.AlgSpec{Name: algo, Msg: msg}
	rec, writeTrace := cliutil.ChromeTrace(traceOut)
	tr, err := experiments.TraceAllReduce(topo, alg, net.GradientBytes(), experiments.Fluid, bin, nil, rec, run.BuildOptions())
	if err != nil {
		log.Fatal(err)
	}
	p := tr.Point
	run.SetTopology(topo, tr.Sched)
	run.NoteCacheKey(topo, algo, int(net.GradientBytes()/collective.WordSize))
	run.Report.Algorithm = algo
	run.Report.DataBytes = p.DataBytes
	run.Report.Engine = experiments.Fluid.String()
	run.Option("model", net.Name)
	run.ObserveSim(tr.Metrics)
	if run.Report.Sim != nil {
		run.Report.Sim.Engine = experiments.Fluid.String()
		run.Report.Sim.Cycles = p.Cycles
		run.Report.Sim.BandwidthGBps = p.BandwidthGBps
	}
	fmt.Printf("%s gradient all-reduce: %s on %s, %d bytes, %d cycles, %.2f GB/s, %d events\n",
		net.Name, p.Algorithm, p.Topology, p.DataBytes, p.Cycles, p.BandwidthGBps, tr.Metrics.Events())
	writeTrace(tr.Meta)
	cliutil.WriteLinkStats(linkstats, tr.Metrics, tr.Meta.LinkNames)
}

// printLayerProfile dumps the per-layer compute/gradient/all-reduce
// breakdown of one model under MultiTree with message-based flow control
// — the raw material of the Fig. 11b overlap analysis.
func printLayerProfile(topo *topology.Topology, name string, run *cliutil.Run) {
	net, err := model.ByName(name)
	if err != nil {
		log.Fatal(err)
	}
	opts := core.DefaultOptions(topo)
	opts.Observer = run.PlanObserver()
	trees, err := core.BuildTrees(topo, opts)
	if err != nil {
		log.Fatal(err)
	}
	run.Option("model", net.Name)
	cfg := training.Config{
		Topo:         topo,
		Accel:        accel.Default(),
		BatchPerNode: 16,
		Net:          network.MessageConfig(),
		Build: func(tp *topology.Topology, elems int) (*collective.Schedule, error) {
			return collective.TreesToSchedule(core.Algorithm, tp, elems, trees)
		},
	}
	rows, err := cfg.Profile(net)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s on %s: per-layer profile (multitree-msg, batch 16/node)\n\n", net.Name, topo.Name())
	fmt.Printf("%-16s %-10s %12s %12s %12s %12s %12s\n",
		"layer", "kind", "params", "grad B", "fwd cyc", "bwd cyc", "allreduce")
	for _, r := range rows {
		fmt.Printf("%-16s %-10s %12d %12d %12d %12d %12d\n",
			r.Name, r.Kind, r.Params, r.GradientBytes,
			r.ForwardCycles, r.BackwardCycles, r.AllReduceCycles)
	}
}
