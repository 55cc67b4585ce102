package multitree_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus the design-choice ablations called out in DESIGN.md.
// Each benchmark regenerates its experiment's data points and reports the
// headline quantity (bandwidth in GB/s, normalized time, etc.) through
// b.ReportMetric, so `go test -bench=.` prints the same series the paper
// plots. The cmd/allreduce-bench and cmd/train-sim tools print the full
// CSVs using the same internal/experiments code paths.
//
// Benchmark sizes default to the bandwidth-saturating 1 MiB point of each
// sweep so the suite completes in minutes; the full 32 KiB - 64 MiB sweeps
// are one flag away via the CLI tools (see EXPERIMENTS.md).

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"multitree/internal/accel"
	"multitree/internal/collective"
	"multitree/internal/core"
	"multitree/internal/experiments"
	"multitree/internal/model"
	"multitree/internal/network"
	"multitree/internal/obs"
	"multitree/internal/plancache"
	"multitree/internal/topology"
	"multitree/internal/topospec"
	"multitree/internal/training"
)

// benchAllReduce measures one (topology, algorithm, size) point and
// reports the achieved bandwidth.
func benchAllReduce(b *testing.B, spec string, dataBytes int64, engine experiments.Engine) {
	topo, err := topospec.Parse(spec)
	if err != nil {
		b.Fatal(err)
	}
	for _, alg := range experiments.Algorithms(topo) {
		b.Run(fmt.Sprintf("%s/%s", spec, alg.Name), func(b *testing.B) {
			b.ReportAllocs()
			var p experiments.AllReducePoint
			for i := 0; i < b.N; i++ {
				p, err = experiments.MeasureAllReduce(topo, alg, dataBytes, engine)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(p.BandwidthGBps, "GB/s")
			b.ReportMetric(float64(p.Cycles), "cycles")
			b.ReportMetric(float64(p.PlanNanos), "plan_ns")
		})
	}
}

// BenchmarkFig9a_Torus regenerates the Torus bandwidth comparison
// (Fig. 9a) at the 1 MiB point with the packet-level reference engine.
func BenchmarkFig9a_Torus(b *testing.B) {
	b.ReportAllocs()
	benchAllReduce(b, "torus-4x4", 1<<20, experiments.Packet)
	benchAllReduce(b, "torus-8x8", 1<<20, experiments.Packet)
}

// BenchmarkFig9b_Mesh regenerates the Mesh comparison (Fig. 9b).
func BenchmarkFig9b_Mesh(b *testing.B) {
	b.ReportAllocs()
	benchAllReduce(b, "mesh-4x4", 1<<20, experiments.Packet)
	benchAllReduce(b, "mesh-8x8", 1<<20, experiments.Packet)
}

// BenchmarkFig9c_FatTree regenerates the Fat-Tree comparison (Fig. 9c).
func BenchmarkFig9c_FatTree(b *testing.B) {
	b.ReportAllocs()
	benchAllReduce(b, "fattree-16", 1<<20, experiments.Packet)
	benchAllReduce(b, "fattree-64", 1<<20, experiments.Packet)
}

// BenchmarkFig9d_BiGraph regenerates the BiGraph comparison (Fig. 9d),
// including the EFLOPS HDRM baseline.
func BenchmarkFig9d_BiGraph(b *testing.B) {
	b.ReportAllocs()
	benchAllReduce(b, "bigraph-32", 1<<20, experiments.Packet)
	benchAllReduce(b, "bigraph-64", 1<<20, experiments.Packet)
}

// BenchmarkFig10_Scalability regenerates the weak-scaling study: 375*N KiB
// all-reduce on N-node Tori, N = 16..256, Ring vs 2D-Ring vs
// MULTITREE-MSG, reporting times normalized to 16-node Ring (Fig. 10's
// y-axis).
func BenchmarkFig10_Scalability(b *testing.B) {
	b.ReportAllocs()
	var points []experiments.Fig10Point
	var err error
	for i := 0; i < b.N; i++ {
		points, err = experiments.Fig10(topospec.TorusFor, []int{16, 32, 64, 128, 256})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		b.ReportMetric(p.Normalized, fmt.Sprintf("norm-%s-%dn", p.Algorithm, p.Nodes))
	}
}

// BenchmarkFig11a_TrainingNonOverlapped regenerates the non-overlapped
// training-time breakdown on an 8x8 Torus (Fig. 11a), reporting each
// model's all-reduce speedup of MULTITREE-MSG over Ring.
func BenchmarkFig11a_TrainingNonOverlapped(b *testing.B) {
	b.ReportAllocs()
	benchFig11(b, false)
}

// BenchmarkFig11b_TrainingOverlapped regenerates the layer-wise
// overlapped breakdown (Fig. 11b).
func BenchmarkFig11b_TrainingOverlapped(b *testing.B) {
	b.ReportAllocs()
	benchFig11(b, true)
}

func benchFig11(b *testing.B, overlapped bool) {
	b.ReportAllocs()
	topo, err := topospec.Parse("torus-8x8")
	if err != nil {
		b.Fatal(err)
	}
	var rows []experiments.Fig11Row
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Fig11(topo, overlapped)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Algorithm == "multitree-msg" {
			b.ReportMetric(r.AllReduceSpeedup, "ARspeedup-"+r.Model)
			b.ReportMetric(r.NormalizedTotal, "normTotal-"+r.Model)
		}
	}
}

// BenchmarkTable1_AlgorithmComparison regenerates the measured Table I:
// steps, bandwidth overhead and contention of every algorithm on every
// topology class.
func BenchmarkTable1_AlgorithmComparison(b *testing.B) {
	b.ReportAllocs()
	var topos []*topology.Topology
	for _, spec := range []string{"torus-8x8", "mesh-8x8", "fattree-16", "bigraph-32"} {
		t, err := topospec.Parse(spec)
		if err != nil {
			b.Fatal(err)
		}
		topos = append(topos, t)
	}
	var rows []experiments.Table1Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Table1(topos, 1<<18)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Topology == "torus-8x8" {
			b.ReportMetric(float64(r.Steps), "steps-"+r.Algorithm)
			b.ReportMetric(r.BandwidthOverhead, "bwOverhead-"+r.Algorithm)
		}
	}
}

// BenchmarkFig2_HeadFlitOverhead regenerates the packet head-flit
// bandwidth overhead curve (6%-25% for 256 B down to 64 B payloads).
func BenchmarkFig2_HeadFlitOverhead(b *testing.B) {
	b.ReportAllocs()
	var pts []experiments.Fig2Point
	for i := 0; i < b.N; i++ {
		pts = experiments.Fig2()
	}
	for _, p := range pts {
		if p.PayloadBytes == 64 || p.PayloadBytes == 256 {
			b.ReportMetric(p.Overhead, fmt.Sprintf("overhead-%dB", p.PayloadBytes))
		}
	}
}

// --- Ablation benches (DESIGN.md §4) ---

// BenchmarkAblation_Lockstep compares MultiTree on BiGraph with the NI
// lockstep + step-priority scheduling of §IV-A enabled and disabled; the
// co-design is what keeps the per-step allocation contention-free in
// time, not just in space.
func BenchmarkAblation_Lockstep(b *testing.B) {
	b.ReportAllocs()
	topo, err := topospec.Parse("bigraph-32")
	if err != nil {
		b.Fatal(err)
	}
	s, err := core.Build(topo, (4<<20)/4, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, lockstep := range []bool{true, false} {
		b.Run(fmt.Sprintf("lockstep=%v", lockstep), func(b *testing.B) {
			b.ReportAllocs()
			cfg := network.DefaultConfig()
			cfg.Lockstep = lockstep
			cfg.StepPriority = lockstep
			var res *network.Result
			for i := 0; i < b.N; i++ {
				res, err = network.SimulateFluid(s, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.BandwidthBytesPerCycle(4<<20), "GB/s")
		})
	}
}

// BenchmarkAblation_TreeOrder compares the round-robin-by-root turn order
// against remaining-height prioritization on an asymmetric Mesh
// (§III-C1's note on asymmetric networks).
func BenchmarkAblation_TreeOrder(b *testing.B) {
	b.ReportAllocs()
	topo := topology.Mesh(4, 8, topology.DefaultLinkConfig())
	for _, order := range []core.TreeOrder{core.RoundRobinByRoot, core.ByRemainingHeight} {
		name := "roundRobin"
		if order == core.ByRemainingHeight {
			name = "remainingHeight"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var s *collective.Schedule
			var err error
			for i := 0; i < b.N; i++ {
				s, err = core.Build(topo, (1<<20)/4, core.Options{Order: order})
				if err != nil {
					b.Fatal(err)
				}
			}
			res, err := network.SimulateFluid(s, network.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(s.Steps), "steps")
			b.ReportMetric(res.BandwidthBytesPerCycle(1<<20), "GB/s")
		})
	}
}

// BenchmarkAblation_DimOrder compares Y-before-X link allocation (the
// paper's preference) against X-before-Y on a Torus.
func BenchmarkAblation_DimOrder(b *testing.B) {
	b.ReportAllocs()
	topo := topology.Torus(8, 8, topology.DefaultLinkConfig())
	for _, reverse := range []bool{false, true} {
		name := "Yfirst"
		if reverse {
			name = "Xfirst"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var s *collective.Schedule
			var err error
			for i := 0; i < b.N; i++ {
				s, err = core.Build(topo, (1<<20)/4, core.Options{ReverseNeighborOrder: reverse})
				if err != nil {
					b.Fatal(err)
				}
			}
			res, err := network.SimulateFluid(s, network.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(s.Steps), "steps")
			b.ReportMetric(res.BandwidthBytesPerCycle(1<<20), "GB/s")
		})
	}
}

// BenchmarkAblation_PayloadSize sweeps the baseline packet payload across
// Fig. 2's 64-256 B range end to end, against the message-based flow
// control.
func BenchmarkAblation_PayloadSize(b *testing.B) {
	b.ReportAllocs()
	topo := topology.Torus(4, 4, topology.DefaultLinkConfig())
	s, err := core.Build(topo, (4<<20)/4, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, payload := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("packet-%dB", payload), func(b *testing.B) {
			b.ReportAllocs()
			cfg := network.DefaultConfig()
			cfg.PayloadBytes = payload
			var res *network.Result
			for i := 0; i < b.N; i++ {
				res, err = network.SimulateFluid(s, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.BandwidthBytesPerCycle(4<<20), "GB/s")
		})
	}
	b.Run("message-based", func(b *testing.B) {
		b.ReportAllocs()
		var res *network.Result
		for i := 0; i < b.N; i++ {
			res, err = network.SimulateFluid(s, network.MessageConfig())
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(res.BandwidthBytesPerCycle(4<<20), "GB/s")
	})
}

// BenchmarkAblation_EngineFidelity runs the same schedule through the
// fluid and packet engines; their agreement on contention-free schedules
// is the basis for using the fluid engine in the large sweeps.
func BenchmarkAblation_EngineFidelity(b *testing.B) {
	b.ReportAllocs()
	topo := topology.Torus(4, 4, topology.DefaultLinkConfig())
	s, err := core.Build(topo, (1<<20)/4, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, engine := range []experiments.Engine{experiments.Fluid, experiments.Packet} {
		b.Run(engine.String(), func(b *testing.B) {
			b.ReportAllocs()
			cfg := network.DefaultConfig()
			var cycles float64
			for i := 0; i < b.N; i++ {
				var res *network.Result
				if engine == experiments.Packet {
					res, err = network.SimulatePackets(s, cfg)
				} else {
					res, err = network.SimulateFluid(s, cfg)
				}
				if err != nil {
					b.Fatal(err)
				}
				cycles = float64(res.Cycles)
			}
			b.ReportMetric(cycles, "simCycles")
		})
	}
}

// BenchmarkMultiTreeConstruction measures Algorithm 1 itself across
// system scales (its complexity bound is O(|V|^2 |E|), §III-C2).
func BenchmarkMultiTreeConstruction(b *testing.B) {
	b.ReportAllocs()
	for _, n := range []int{16, 64, 256} {
		topo, err := topospec.TorusFor(n)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("torus-%dn", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.BuildTrees(topo, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScheduleExecution measures the correctness interpreter, the
// hot path of the property-based tests.
func BenchmarkScheduleExecution(b *testing.B) {
	b.ReportAllocs()
	topo := topology.Torus(4, 4, topology.DefaultLinkConfig())
	s, err := core.Build(topo, 1<<14, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	in := collective.RampInputs(topo.Nodes(), s.Elems)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := collective.Execute(s, in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollective_AllToAll measures the DLRM-style all-to-all of
// §VII-B built on the all-gather trees.
func BenchmarkCollective_AllToAll(b *testing.B) {
	b.ReportAllocs()
	topo := topology.Torus(4, 4, topology.DefaultLinkConfig())
	s, err := core.BuildAllToAll(topo, (1<<20)/4/16, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var res *network.Result
	for i := 0; i < b.N; i++ {
		res, err = network.SimulateFluid(s, network.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Cycles), "cycles")
}

// BenchmarkAblation_Energy prices the flow-control co-design: the same
// MultiTree schedule under packet-based vs message-based flow control.
func BenchmarkAblation_Energy(b *testing.B) {
	b.ReportAllocs()
	topo := topology.Torus(8, 8, topology.DefaultLinkConfig())
	s, err := core.Build(topo, (16<<20)/4, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	m := network.DefaultEnergyModel()
	for _, cfg := range []network.Config{network.DefaultConfig(), network.MessageConfig()} {
		name := "packet-based"
		if cfg.MessageBased {
			name = "message-based"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var e network.EnergyBreakdown
			for i := 0; i < b.N; i++ {
				e, err = network.EstimateEnergy(s, cfg, m)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(e.TotalUJ(), "uJ")
			b.ReportMetric(float64(e.Packets), "arbEvents")
		})
	}
}

// BenchmarkAblation_NCCLThreshold compares MultiTree against an oracle
// that always picks the better of Ring and DBTree per message size — the
// size-threshold switching NCCL uses (footnote 1 of the paper). MultiTree
// beats the oracle at every size because it is simultaneously low-latency
// and bandwidth-optimal.
func BenchmarkAblation_NCCLThreshold(b *testing.B) {
	b.ReportAllocs()
	topo := topology.Torus(8, 8, topology.DefaultLinkConfig())
	for _, bytes := range []int64{32 << 10, 1 << 20, 16 << 20} {
		b.Run(fmt.Sprintf("%dKiB", bytes>>10), func(b *testing.B) {
			b.ReportAllocs()
			var oracle, mtree float64
			for i := 0; i < b.N; i++ {
				r, err := experiments.MeasureAllReduce(topo, experiments.AlgSpec{Name: "ring"}, bytes, experiments.Fluid)
				if err != nil {
					b.Fatal(err)
				}
				d, err := experiments.MeasureAllReduce(topo, experiments.AlgSpec{Name: "dbtree"}, bytes, experiments.Fluid)
				if err != nil {
					b.Fatal(err)
				}
				m, err := experiments.MeasureAllReduce(topo, experiments.AlgSpec{Name: "multitree"}, bytes, experiments.Fluid)
				if err != nil {
					b.Fatal(err)
				}
				oracle = float64(r.Cycles)
				if float64(d.Cycles) < oracle {
					oracle = float64(d.Cycles)
				}
				mtree = float64(m.Cycles)
			}
			b.ReportMetric(oracle/mtree, "speedupVsOracle")
		})
	}
}

// BenchmarkStrongScaling reproduces the §VI-B side note: with a fixed
// large problem, communication time shows "only small variation" as the
// torus grows, because every algorithm stays contention-free and
// serialization dominates.
func BenchmarkStrongScaling(b *testing.B) {
	b.ReportAllocs()
	var points []experiments.Fig10Point
	var err error
	for i := 0; i < b.N; i++ {
		points, err = experiments.StrongScaling(topospec.TorusFor, []int{16, 64, 256}, 32<<20)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		b.ReportMetric(p.Normalized, fmt.Sprintf("rel-%s-%dn", p.Algorithm, p.Nodes))
	}
}

// BenchmarkAblation_Dataflow compares the three systolic mappings on
// ResNet50's forward pass (the paper fixes output stationary; this shows
// the choice's cost).
func BenchmarkAblation_Dataflow(b *testing.B) {
	b.ReportAllocs()
	net, err := model.ByName("ResNet50")
	if err != nil {
		b.Fatal(err)
	}
	for _, d := range []accel.Dataflow{accel.OutputStationary, accel.WeightStationary, accel.InputStationary} {
		b.Run(d.String(), func(b *testing.B) {
			b.ReportAllocs()
			a := accel.Default()
			a.Dataflow = d
			var cyc int64
			for i := 0; i < b.N; i++ {
				cyc = a.NetworkForwardCycles(net, 16)
			}
			b.ReportMetric(float64(cyc), "fwdCycles")
		})
	}
}

// BenchmarkAblation_GradientFusion sweeps the Horovod-style fusion
// threshold extension over the overlapped Transformer iteration.
func BenchmarkAblation_GradientFusion(b *testing.B) {
	b.ReportAllocs()
	topo := topology.Torus(8, 8, topology.DefaultLinkConfig())
	for _, fusion := range []int64{0, 1 << 20, 16 << 20} {
		b.Run(fmt.Sprintf("fusion-%dMiB", fusion>>20), func(b *testing.B) {
			b.ReportAllocs()
			cfg := training.Config{
				Topo:         topo,
				Accel:        accel.Default(),
				BatchPerNode: 16,
				Net:          network.MessageConfig(),
				FusionBytes:  fusion,
				Build: func(tp *topology.Topology, elems int) (*collective.Schedule, error) {
					return experiments.BuildSchedule(tp, "multitree", elems)
				},
			}
			net, err := model.ByName("Transformer")
			if err != nil {
				b.Fatal(err)
			}
			var res training.Breakdown
			for i := 0; i < b.N; i++ {
				res, err = cfg.Overlapped(net)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Total)/1e6, "ms-total")
		})
	}
}

// BenchmarkAblation_TreeAdjustment measures the §IV-A-footnote
// tree-adjustment direction on BiGraph: the paper's literal
// first-parent-in-addition-order allocation versus shortest-free-path
// allocation (the default on switch-based networks), which reaches the
// per-phase step lower bound.
func BenchmarkAblation_TreeAdjustment(b *testing.B) {
	b.ReportAllocs()
	topo, err := topospec.Parse("bigraph-32")
	if err != nil {
		b.Fatal(err)
	}
	for _, shortest := range []bool{false, true} {
		name := "firstParent"
		if shortest {
			name = "shortestPath"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var s *collective.Schedule
			for i := 0; i < b.N; i++ {
				s, err = core.Build(topo, (4<<20)/4, core.Options{ShortestPathFirst: shortest})
				if err != nil {
					b.Fatal(err)
				}
			}
			res, err := network.SimulateFluid(s, network.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(s.Steps), "steps")
			b.ReportMetric(res.BandwidthBytesPerCycle(4<<20), "GB/s")
		})
	}
}

// BenchmarkTraceOverhead is the observability cost guard: the same 1 MiB
// MultiTree packet-level simulation with tracing disabled, with a
// streaming metrics collector, with an in-memory recorder, and with the
// full Chrome-trace export to io.Discard. The disabled case is the one
// every experiment pays; it must stay within noise of the pre-tracing
// engine (the emit sites reduce to a nil check), and the sub-benchmark
// deltas price each collector.
func BenchmarkTraceOverhead(b *testing.B) {
	b.ReportAllocs()
	topo, err := topospec.Parse("torus-4x4")
	if err != nil {
		b.Fatal(err)
	}
	s, err := core.Build(topo, (1<<20)/4, core.DefaultOptions(topo))
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, tr obs.Tracer) *network.Result {
		cfg := network.DefaultConfig()
		cfg.Tracer = tr
		res, err := network.SimulatePackets(s, cfg)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	b.Run("disabled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			run(b, nil)
		}
	})
	b.Run("metrics", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			run(b, obs.NewMetrics(1000))
		}
	})
	b.Run("recorder", func(b *testing.B) {
		b.ReportAllocs()
		rec := &obs.Recorder{}
		for i := 0; i < b.N; i++ {
			rec.Reset()
			run(b, rec)
		}
		b.ReportMetric(float64(len(rec.Events)), "events")
	})
	b.Run("chrometrace", func(b *testing.B) {
		b.ReportAllocs()
		rec := &obs.Recorder{}
		meta := network.TraceMetaFor(s, "")
		for i := 0; i < b.N; i++ {
			rec.Reset()
			run(b, rec)
			if err := obs.WriteChromeTrace(io.Discard, meta, rec.Events); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFluidSweep_Torus8x8 times the fluid engine alone on the
// torus-8x8 algorithm menu at the 1 MiB plateau point: schedules are
// prebuilt outside the timer, so ns/op is pure simulation cost with no
// schedule-construction dilution. This is the regression benchmark the
// fluid-engine rewrite is measured by; the pre-rewrite numbers are kept
// in results/BENCH_pr4-fluid-baseline.txt.
func BenchmarkFluidSweep_Torus8x8(b *testing.B) {
	topo, err := topospec.Parse("torus-8x8")
	if err != nil {
		b.Fatal(err)
	}
	for _, alg := range experiments.Algorithms(topo) {
		s, err := experiments.BuildSchedule(topo, alg.Name, (1<<20)/4)
		if err != nil {
			b.Fatal(err)
		}
		cfg := network.DefaultConfig()
		cfg.MessageBased = alg.Msg
		b.Run(alg.Name, func(b *testing.B) {
			b.ReportAllocs()
			var res *network.Result
			for i := 0; i < b.N; i++ {
				res, err = network.SimulateFluid(s, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Cycles), "simCycles")
			b.ReportMetric(res.BandwidthBytesPerCycle(1<<20), "GB/s")
		})
	}
}

// BenchmarkFluidEngineSteadyState is the fluid counterpart of
// BenchmarkPacketEngineSteadyState: a reusable FluidSim re-simulates a
// 16 MiB MultiTree all-reduce on an 8x8 Torus, reusing its typed event
// heap, rate scratch arrays and link occupancy arena across runs. The
// benchmark fails outright if the steady-state loop allocates, so an
// accidental map, closure or slice regrowth in the rate recompute cannot
// land silently.
func BenchmarkFluidEngineSteadyState(b *testing.B) {
	topo, err := topospec.Parse("torus-8x8")
	if err != nil {
		b.Fatal(err)
	}
	s, err := core.Build(topo, (16<<20)/4, core.DefaultOptions(topo))
	if err != nil {
		b.Fatal(err)
	}
	sim, err := network.NewFluidSim(s, network.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	warm, err := sim.Run() // grow every backing array to its high-water mark
	if err != nil {
		b.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(1, func() {
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}); allocs != 0 {
		b.Fatalf("steady-state event loop allocates %.1f per run, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var res *network.Result
	for i := 0; i < b.N; i++ {
		res, err = sim.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	if res.Cycles != warm.Cycles {
		b.Fatalf("steady-state run finished in %d cycles, warm-up in %d", res.Cycles, warm.Cycles)
	}
	b.ReportMetric(float64(res.Cycles), "simCycles")
	b.ReportMetric(res.BandwidthBytesPerCycle(16<<20), "GB/s")
}

// BenchmarkPlanMesh16x16 measures a cold MultiTree build on the 256-node
// Mesh — the planner-scaling benchmark of the bitset/memoized tree-growth
// rewrite. The PR 6 baseline for this build was ~4.3 s; the rewrite's
// budget is well under half a second (results/BENCH_pr7.txt records the
// measured value). ns/op is pure planning: topology construction happens
// outside the timer, and allocs/op guards the scratch-reuse discipline.
func BenchmarkPlanMesh16x16(b *testing.B) {
	topo, err := topospec.Parse("mesh-16x16")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var s *collective.Schedule
	for i := 0; i < b.N; i++ {
		s, err = core.Build(topo, (1<<20)/4, core.DefaultOptions(topo))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(s.Steps), "steps")
	b.ReportMetric(float64(len(s.Transfers)), "transfers")
}

// BenchmarkPlanCacheWarmLoad measures the warm path the plan cache buys:
// loading a stored mesh-16x16 schedule back through the strict IR
// validator instead of re-planning it. The ratio to BenchmarkPlanMesh16x16
// is the cache's speedup; the absolute number must stay far under the
// ISSUE's one-second warm-hit budget even at 32x32 (IR size scales
// linearly with transfers while planning scales superlinearly).
func BenchmarkPlanCacheWarmLoad(b *testing.B) {
	topo, err := topospec.Parse("mesh-16x16")
	if err != nil {
		b.Fatal(err)
	}
	elems := (1 << 20) / 4
	s, err := core.Build(topo, elems, core.DefaultOptions(topo))
	if err != nil {
		b.Fatal(err)
	}
	cache, err := plancache.Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	key := plancache.Key(topo, core.Algorithm, elems, 0)
	if _, err := cache.Put(key, s); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var bytesRead int64
	for i := 0; i < b.N; i++ {
		got, n, ok := cache.Get(key, topo)
		if !ok {
			b.Fatal("warm cache missed")
		}
		if got.Steps != s.Steps {
			b.Fatal("cached schedule differs")
		}
		bytesRead = n
	}
	b.ReportMetric(float64(bytesRead), "irBytes")
}

// BenchmarkWarmLoadMesh32x32Parallel measures the v3 warm path at the
// 1024-node scale: a stored mesh-32x32 plan (~2.1M transfers) decoded
// section-by-section with every available worker. Against
// BenchmarkPlanCacheWarmLoad's sequential 16x16 load this is the
// headline sub-second-warm-plan number; on multi-core hosts the
// sectioned decode splits the varint and hashing work across cores,
// and on single-core ones it bounds the regression of the fan-out
// bookkeeping.
func BenchmarkWarmLoadMesh32x32Parallel(b *testing.B) {
	topo, err := topospec.Parse("mesh-32x32")
	if err != nil {
		b.Fatal(err)
	}
	elems := (1 << 20) / 4
	s, err := core.Build(topo, elems, core.DefaultOptions(topo))
	if err != nil {
		b.Fatal(err)
	}
	cache, err := plancache.Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	key := plancache.Key(topo, core.Algorithm, elems, 0)
	if _, err := cache.Put(key, s); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var bytesRead int64
	for i := 0; i < b.N; i++ {
		got, n, ok := cache.GetOpts(key, topo, plancache.GetOptions{Workers: runtime.GOMAXPROCS(0)})
		if !ok {
			b.Fatal("warm cache missed")
		}
		if got.Steps != s.Steps {
			b.Fatal("cached schedule differs")
		}
		bytesRead = n
	}
	b.ReportMetric(float64(bytesRead), "irBytes")
}

// BenchmarkMemCacheHit measures the decoded-plan memory tier: the cost
// of serving an already-materialized mesh-16x16 schedule. This is the
// floor every warm load above it (disk decode, re-plan) is compared
// against — a hit is a map lookup and an LRU splice, no I/O, no varint,
// no hashing.
func BenchmarkMemCacheHit(b *testing.B) {
	topo, err := topospec.Parse("mesh-16x16")
	if err != nil {
		b.Fatal(err)
	}
	elems := (1 << 20) / 4
	s, err := core.Build(topo, elems, core.DefaultOptions(topo))
	if err != nil {
		b.Fatal(err)
	}
	m := plancache.NewMemCache(s.MemBytes() * 2)
	key := plancache.Key(topo, core.Algorithm, elems, 0)
	m.Put(key, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, ok := m.Get(key)
		if !ok {
			b.Fatal("mem cache missed")
		}
		if got != s {
			b.Fatal("mem cache returned a different schedule")
		}
	}
	b.ReportMetric(float64(s.MemBytes()), "memBytes")
}

// BenchmarkLowerMesh32x32 measures schedule lowering alone at the
// 1024-node scale — the ~2.1M-transfer Mesh where lowering, not tree
// growth, dominated cold builds before the parallel arena-based rewrite.
// Trees are grown once outside the timer; each iteration re-lowers them
// with every available worker. The schedule is byte-identical at any
// worker count, so this also exercises the deterministic merge.
func BenchmarkLowerMesh32x32(b *testing.B) {
	topo, err := topospec.Parse("mesh-32x32")
	if err != nil {
		b.Fatal(err)
	}
	opts := core.DefaultOptions(topo)
	trees, err := core.BuildTrees(topo, opts)
	if err != nil {
		b.Fatal(err)
	}
	elems := (1 << 20) / 4
	b.ReportAllocs()
	b.ResetTimer()
	var s *collective.Schedule
	for i := 0; i < b.N; i++ {
		s, err = collective.TreesToScheduleParallel(core.Algorithm, topo, elems, trees, runtime.GOMAXPROCS(0), nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(s.Transfers)), "transfers")
}

// BenchmarkPacketEngineSteadyState is the zero-allocation guard for the
// discrete-event hot path: a reusable PacketSim re-simulates a 16 MiB
// MultiTree all-reduce on an 8x8 Torus, reusing its event heap, packet
// arena and link ring deques across runs. The benchmark fails outright if
// the steady-state event loop allocates, so an accidental closure or
// slice regrowth in the engine cannot land silently.
func BenchmarkPacketEngineSteadyState(b *testing.B) {
	topo, err := topospec.Parse("torus-8x8")
	if err != nil {
		b.Fatal(err)
	}
	s, err := core.Build(topo, (16<<20)/4, core.DefaultOptions(topo))
	if err != nil {
		b.Fatal(err)
	}
	sim, err := network.NewPacketSim(s, network.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	warm, err := sim.Run() // grow every backing array to its high-water mark
	if err != nil {
		b.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(1, func() {
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}); allocs != 0 {
		b.Fatalf("steady-state event loop allocates %.1f per run, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var res *network.Result
	for i := 0; i < b.N; i++ {
		res, err = sim.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	if res.Cycles != warm.Cycles {
		b.Fatalf("steady-state run finished in %d cycles, warm-up in %d", res.Cycles, warm.Cycles)
	}
	b.ReportMetric(float64(res.Cycles), "simCycles")
	b.ReportMetric(res.BandwidthBytesPerCycle(16<<20), "GB/s")
}
