// Package experiments regenerates the paper's evaluation artifacts: the
// all-reduce bandwidth sweeps of Fig. 9, the weak-scaling study of
// Fig. 10, the DNN training breakdowns of Fig. 11, the algorithm
// comparison of Table I, and the head-flit overhead curve of Fig. 2. The
// cmd/ tools print these as CSV; bench_test.go reports them as benchmark
// metrics. Both call into this package so the numbers always agree.
package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"multitree/internal/algorithms"
	"multitree/internal/collective"
	"multitree/internal/core"
	"multitree/internal/network"
	"multitree/internal/ring"
	"multitree/internal/ring2d"
	"multitree/internal/topology"
)

// Engine selects the network simulation granularity.
type Engine int

const (
	// Fluid is the fast flow-level engine: exact for contention-free
	// schedules (Ring, 2D-Ring on Torus, HDRM, MultiTree) and used for the
	// large scaling and training studies.
	Fluid Engine = iota
	// Packet is the packet-granularity reference engine, needed where
	// congestion trees matter (DBTree anywhere, 2D-Ring on Mesh).
	Packet
)

func (e Engine) String() string {
	if e == Packet {
		return "packet"
	}
	return "fluid"
}

// ParseEngine maps an -engine flag value to an Engine: "" and "packet"
// select Packet, "fluid" selects Fluid, and anything else is an error.
func ParseEngine(name string) (Engine, error) {
	switch name {
	case "", "packet":
		return Packet, nil
	case "fluid":
		return Fluid, nil
	}
	return 0, fmt.Errorf("experiments: unknown engine %q (want packet or fluid)", name)
}

func (e Engine) run(s *collective.Schedule, cfg network.Config) (*network.Result, error) {
	if e == Packet {
		return network.SimulatePackets(s, cfg)
	}
	return network.SimulateFluid(s, cfg)
}

// AlgSpec names an algorithm variant in the evaluation: the four baselines
// plus MultiTree with and without message-based flow control.
type AlgSpec struct {
	Name string
	// Msg enables message-based flow control (MULTITREE-MSG).
	Msg bool
}

// Algorithms returns the algorithm variants applicable to a topology, in
// the paper's plotting order: the registry's featured menu plus the
// MULTITREE-MSG flow-control variant.
func Algorithms(topo *topology.Topology) []AlgSpec {
	var specs []AlgSpec
	for _, a := range algorithms.For(topo) {
		specs = append(specs, AlgSpec{Name: a.Name})
	}
	specs = append(specs, AlgSpec{Name: core.Algorithm + algorithms.MsgSuffix, Msg: true})
	return specs
}

// AllReducePoint is one measurement of Fig. 9/10. The JSON tags define
// the machine-readable result format of allreduce-bench -json, consumed
// by perf-trajectory tracking.
type AllReducePoint struct {
	Topology  string `json:"topology"`
	Algorithm string `json:"algorithm"`
	DataBytes int64  `json:"data_bytes"`
	Cycles    uint64 `json:"cycles"`
	// BandwidthGBps is data size / time, the §VI-A metric (1 B/cycle =
	// 1 GB/s at the 1 GHz router clock).
	BandwidthGBps float64 `json:"bandwidth_gbps"`

	// WallNanos is the host wall-clock time spent producing this point
	// (schedule construction plus simulation) — the simulator-throughput
	// number the benchmark-regression harness tracks. PlanNanos is the
	// schedule-construction share of it, splitting planner cost from
	// engine cost in the same record.
	WallNanos int64 `json:"wall_ns,omitempty"`
	PlanNanos int64 `json:"plan_ns,omitempty"`
}

// MeasureAllReduce simulates one (topology, algorithm, size) point. The
// zero opts is a plain, uncached, unobserved build; with a plan cache
// attached, PlanNanos still reports the point's true schedule-acquisition
// cost — a hit makes it milliseconds instead of minutes.
func MeasureAllReduce(topo *topology.Topology, alg AlgSpec, dataBytes int64, engine Engine, opts algorithms.Options) (AllReducePoint, error) {
	p, _, err := measure(topo, alg, dataBytes, engine, network.DefaultConfig(), opts)
	return p, err
}

// measure is the build→simulate→point body shared by MeasureAllReduce
// and TraceAllReduce, which differ only in the engine configuration they
// pass (tracer, faults) and in what they return.
func measure(topo *topology.Topology, alg AlgSpec, dataBytes int64, engine Engine, cfg network.Config, opts algorithms.Options) (AllReducePoint, *collective.Schedule, error) {
	start := time.Now()
	s, err := algorithms.Build(topo, alg.Name, int(dataBytes/collective.WordSize), opts)
	if err != nil {
		return AllReducePoint{}, nil, err
	}
	planned := time.Now()
	cfg.MessageBased = alg.Msg
	res, err := engine.run(s, cfg)
	if err != nil {
		return AllReducePoint{}, nil, err
	}
	return AllReducePoint{
		Topology:      topo.Name(),
		Algorithm:     alg.Name,
		DataBytes:     dataBytes,
		Cycles:        uint64(res.Cycles),
		BandwidthGBps: res.BandwidthBytesPerCycle(dataBytes),
		WallNanos:     time.Since(start).Nanoseconds(),
		PlanNanos:     planned.Sub(start).Nanoseconds(),
	}, s, nil
}

// Fig9Sizes returns the §VI-A sweep: 32 KiB doubling to maxBytes
// (64 MiB in the paper).
func Fig9Sizes(maxBytes int64) []int64 {
	var out []int64
	for b := int64(32 << 10); b <= maxBytes; b *= 2 {
		out = append(out, b)
	}
	return out
}

// Fig9 sweeps every applicable algorithm over the data sizes on one
// topology across a GOMAXPROCS-wide worker pool (simulations of
// different points are independent; topologies are safe for concurrent
// reads). Results come back in deterministic (algorithm, size) order
// regardless of completion order. All workers share opts: one observer sees every build (a
// PlanProfile charges overlapping same-phase runs their union interval),
// and a shared plan cache pays off twice — the "-msg" variant of each
// point hits the entry its base variant stored, and a re-run of the
// sweep hits everything.
func Fig9(topo *topology.Topology, sizes []int64, engine Engine, opts algorithms.Options) ([]AllReducePoint, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("fig9 %s: no data sizes to sweep", topo.Name())
	}
	type job struct {
		idx   int
		alg   AlgSpec
		bytes int64
	}
	var jobs []job
	for _, alg := range Algorithms(topo) {
		for _, bytes := range sizes {
			jobs = append(jobs, job{idx: len(jobs), alg: alg, bytes: bytes})
		}
	}
	points := make([]AllReducePoint, len(jobs))
	errs := make([]error, len(jobs))
	ch := make(chan job)
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				p, err := MeasureAllReduce(topo, j.alg, j.bytes, engine, opts)
				if err != nil {
					errs[j.idx] = fmt.Errorf("%s/%s/%d: %w", topo.Name(), j.alg.Name, j.bytes, err)
					continue
				}
				points[j.idx] = p
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return points, nil
}

// Fig10Point is one weak-scaling measurement: all-reduce time for
// 375*N KiB on an N-node torus, plus the value normalized to 16-node Ring
// (the figure's y-axis).
type Fig10Point struct {
	Nodes      int
	Algorithm  string
	DataBytes  int64
	Cycles     uint64
	Normalized float64 // cycles / cycles(ring, 16 nodes)
}

// Fig10 runs the weak-scaling study over the given node counts (the paper
// uses 16..256 on Torus) with Ring, 2D-Ring and MULTITREE-MSG.
func Fig10(torusFor func(int) (*topology.Topology, error), nodeCounts []int) ([]Fig10Point, error) {
	return scaling("fig10", torusFor, nodeCounts, func(n int) int64 { return int64(375*n) << 10 }, ring.Algorithm)
}

// StrongScaling runs the §VI-B side experiment: a fixed large problem
// size across growing node counts. The paper reports "only small
// variation for each algorithm since they are all contention-free and
// serialization latency is more dominant for large all-reduce size" —
// i.e. communication time stays roughly flat (the per-node share shrinks
// as fast as the node count grows).
func StrongScaling(torusFor func(int) (*topology.Topology, error), nodeCounts []int, dataBytes int64) ([]Fig10Point, error) {
	return scaling("strong scaling", torusFor, nodeCounts, func(int) int64 { return dataBytes }, "")
}

// scaling measures Ring, 2D-Ring and MULTITREE-MSG on the fluid engine
// at each node count, with dataBytes(n) of gradient on n nodes. Each
// point is normalized to the first node count's cycles of baseAlg, or of
// its own algorithm when baseAlg is empty.
func scaling(study string, torusFor func(int) (*topology.Topology, error), nodeCounts []int, dataBytes func(int) int64, baseAlg string) ([]Fig10Point, error) {
	algs := []AlgSpec{
		{Name: ring.Algorithm},
		{Name: ring2d.Algorithm},
		{Name: core.Algorithm + "-msg", Msg: true},
	}
	var out []Fig10Point
	base := map[string]float64{}
	for _, n := range nodeCounts {
		topo, err := torusFor(n)
		if err != nil {
			return nil, err
		}
		size := dataBytes(n)
		for _, alg := range algs {
			p, err := MeasureAllReduce(topo, alg, size, Fluid, algorithms.Options{})
			if err != nil {
				return nil, fmt.Errorf("%s %d/%s: %w", study, n, alg.Name, err)
			}
			if _, ok := base[alg.Name]; !ok {
				base[alg.Name] = float64(p.Cycles)
			}
			ref := baseAlg
			if ref == "" {
				ref = alg.Name
			}
			out = append(out, Fig10Point{
				Nodes: n, Algorithm: alg.Name, DataBytes: size,
				Cycles: p.Cycles, Normalized: float64(p.Cycles) / base[ref],
			})
		}
	}
	return out, nil
}

// Fig2Point is one head-flit overhead sample.
type Fig2Point struct {
	PayloadBytes int
	Overhead     float64
}

// Fig2 returns the packet head-flit bandwidth overhead for payloads of 64
// to 256 bytes with 16-byte flits (6%-25%).
func Fig2() []Fig2Point {
	var out []Fig2Point
	for p := 64; p <= 256; p += 16 {
		out = append(out, Fig2Point{PayloadBytes: p, Overhead: network.HeadFlitOverhead(p, 16)})
	}
	return out
}

// Table1Row reproduces Table I for one (algorithm, topology) pair from
// measured schedule properties rather than assertions.
type Table1Row struct {
	Algorithm string
	Topology  string

	Steps             int
	BandwidthOverhead float64 // 1.0 = optimal
	MaxLinkOverlap    int     // 1 = contention-free
	MaxHops           int
}

// Table1 analyzes every applicable algorithm on the given topologies.
func Table1(topos []*topology.Topology, elems int) ([]Table1Row, error) {
	var out []Table1Row
	for _, topo := range topos {
		for _, alg := range Algorithms(topo) {
			if alg.Msg {
				continue // flow control does not change the schedule
			}
			s, err := algorithms.Build(topo, alg.Name, elems, algorithms.Options{})
			if err != nil {
				return nil, err
			}
			a := collective.Analyze(s)
			out = append(out, Table1Row{
				Algorithm:         alg.Name,
				Topology:          topo.Name(),
				Steps:             a.Steps,
				BandwidthOverhead: a.BandwidthOverhead(),
				MaxLinkOverlap:    a.MaxLinkOverlap,
				MaxHops:           a.MaxHops,
			})
		}
	}
	return out, nil
}
