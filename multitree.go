package multitree

import (
	"slices"

	"multitree/internal/algorithms"
	"multitree/internal/collective"
	"multitree/internal/network"
	"multitree/internal/obs"
	"multitree/internal/topology"
)

// Algorithm names an all-reduce algorithm.
type Algorithm string

// The implemented all-reduce algorithms: the paper's MultiTree
// contribution and the four baselines of its evaluation.
const (
	Ring      Algorithm = "ring"
	DBTree    Algorithm = "dbtree"
	Ring2D    Algorithm = "2d-ring"
	HDRM      Algorithm = "hdrm"
	MultiTree Algorithm = "multitree"
)

// Algorithms lists all supported algorithms, in the central registry's
// plotting order.
func Algorithms() []Algorithm {
	names := algorithms.Names()
	out := make([]Algorithm, len(names))
	for i, n := range names {
		out[i] = Algorithm(n)
	}
	return out
}

// LinkConfig sets the physical link parameters; the zero value selects the
// paper's Table III configuration (16 GB/s, 150 ns).
type LinkConfig struct {
	BandwidthGBps float64
	LatencyNs     int
}

func (lc LinkConfig) internal() topology.LinkConfig {
	cfg := topology.DefaultLinkConfig()
	if lc.BandwidthGBps > 0 {
		cfg.Bandwidth = lc.BandwidthGBps // 1 GB/s = 1 B/cycle at 1 GHz
	}
	if lc.LatencyNs > 0 {
		cfg.Latency = simTime(lc.LatencyNs)
	}
	return cfg
}

// Topology is an interconnection network instance.
type Topology struct {
	t *topology.Topology
}

// NewTorus returns an nx-by-ny 2D Torus with Table III links.
func NewTorus(nx, ny int) *Topology { return NewTorusLinks(nx, ny, LinkConfig{}) }

// NewTorusLinks returns an nx-by-ny 2D Torus with custom links.
func NewTorusLinks(nx, ny int, lc LinkConfig) *Topology {
	return &Topology{t: topology.Torus(nx, ny, lc.internal())}
}

// NewMesh returns an nx-by-ny 2D Mesh with Table III links.
func NewMesh(nx, ny int) *Topology { return NewMeshLinks(nx, ny, LinkConfig{}) }

// NewMeshLinks returns an nx-by-ny 2D Mesh with custom links.
func NewMeshLinks(nx, ny int, lc LinkConfig) *Topology {
	return &Topology{t: topology.Mesh(nx, ny, lc.internal())}
}

// NewFatTree returns a two-level fat tree: leaves leaf switches of
// nodesPerLeaf nodes each, fully connected to spines root switches.
func NewFatTree(leaves, nodesPerLeaf, spines int) *Topology {
	return &Topology{t: topology.FatTree(leaves, nodesPerLeaf, spines, topology.DefaultLinkConfig())}
}

// NewBiGraph returns an EFLOPS BiGraph: two layers of perLayer switches,
// fully connected between layers, nodesPerSwitch nodes each.
func NewBiGraph(perLayer, nodesPerSwitch int) *Topology {
	return &Topology{t: topology.BiGraph(perLayer, nodesPerSwitch, topology.DefaultLinkConfig())}
}

// NewTorus3D returns an nx-by-ny-by-nz 3D Torus (newer TPU-pod-style
// fabric); MultiTree schedules it with no topology-specific code.
func NewTorus3D(nx, ny, nz int) *Topology {
	return &Topology{t: topology.Torus3D(nx, ny, nz, topology.DefaultLinkConfig())}
}

// NewMesh3D returns an nx-by-ny-by-nz 3D Mesh.
func NewMesh3D(nx, ny, nz int) *Topology {
	return &Topology{t: topology.Mesh3D(nx, ny, nz, topology.DefaultLinkConfig())}
}

// NewDragonfly returns a dragonfly fabric: groups completely connected
// internally, one global channel per group pair, nodesPerRouter
// accelerators per router.
func NewDragonfly(groups, routersPerGroup, nodesPerRouter int) *Topology {
	return &Topology{t: topology.Dragonfly(groups, routersPerGroup, nodesPerRouter, topology.DefaultLinkConfig())}
}

// Name returns the topology's name, e.g. "torus-8x8".
func (t *Topology) Name() string { return t.t.Name() }

// Nodes returns the number of accelerators.
func (t *Topology) Nodes() int { return t.t.Nodes() }

// Supports reports whether an algorithm applies to this topology, per the
// central registry's applicability predicates: 2D-Ring needs a grid, HDRM
// needs a power-of-two node count, the rest need at least two nodes.
func (t *Topology) Supports(alg Algorithm) bool {
	spec, ok := algorithms.Lookup(string(alg))
	return ok && spec.Supports(t.t)
}

// Schedule is a complete all-reduce communication plan, ready to simulate
// or to execute on real data.
type Schedule struct {
	s *collective.Schedule

	// verify checks the semantics of the collective the schedule was
	// built as (subset all-reduce, reduce-scatter, all-gather,
	// all-to-all); nil means an all-reduce over every node.
	verify func(*collective.Schedule) error
}

// BuildSchedule constructs the all-reduce schedule of an algorithm for
// dataBytes of gradient (rounded down to whole 4-byte elements) on a
// topology. The zero PlanOptions is a plain build; its fields add
// parallel construction, the plan-cache tiers and profiling, and the
// schedule built is byte-identical for every combination.
func BuildSchedule(t *Topology, alg Algorithm, dataBytes int64, opt PlanOptions) (*Schedule, error) {
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
	s, err := algorithms.Build(t.t, string(alg), int(dataBytes/collective.WordSize), aopts)
	if err != nil {
		return nil, err
	}
	return &Schedule{s: s}, nil
}

// Algorithm returns the schedule's algorithm name.
func (s *Schedule) Algorithm() Algorithm { return Algorithm(s.s.Algorithm) }

// Steps returns the number of algorithmic time steps.
func (s *Schedule) Steps() int { return s.s.Steps }

// Transfers returns the number of point-to-point messages.
func (s *Schedule) Transfers() int { return len(s.s.Transfers) }

// ContentionFree reports whether no two same-step transfers share a
// physical link.
func (s *Schedule) ContentionFree() bool {
	return collective.Analyze(s.s).ContentionFree()
}

// BandwidthOverhead returns communicated bytes relative to the
// bandwidth-optimal 2(N-1)/N per node (1.0 = optimal; 2D-Ring approaches
// 2.0).
func (s *Schedule) BandwidthOverhead() float64 {
	return collective.Analyze(s.s).BandwidthOverhead()
}

// Verify executes the schedule on synthetic vectors and checks the
// semantics of the collective it was built as: for an all-reduce, every
// node ends with the global sum. Verification is semantic, not
// size-dependent, so it runs on narrow(s), which stays cheap on
// multi-GiB schedules.
func (s *Schedule) Verify() error {
	n := narrow(s.s)
	if s.verify != nil {
		return s.verify(n)
	}
	return collective.VerifyAllReduce(n, collective.RampInputs(n.Topo.Nodes(), n.Elems))
}

// narrow returns s with one element per elementary segment: the flow
// range boundaries cut [0, Elems) into segments that every flow either
// covers whole or misses, so each segment behaves exactly like one
// element. The transfers, dependencies and paths are s's own, so
// executing the result checks the schedule itself at a fraction of the
// data. Flows that partition the vector narrow to one element each.
func narrow(s *collective.Schedule) *collective.Schedule {
	cuts := make([]int, 0, 2*len(s.Flows)+2)
	cuts = append(cuts, 0, s.Elems)
	for _, r := range s.Flows {
		cuts = append(cuts, r.Off, r.End())
	}
	slices.Sort(cuts)
	cuts = slices.Compact(cuts)
	flows := make([]collective.Range, len(s.Flows))
	for f, r := range s.Flows {
		off, _ := slices.BinarySearch(cuts, r.Off)
		end, _ := slices.BinarySearch(cuts, r.End())
		flows[f] = collective.Range{Off: off, Len: end - off}
	}
	return s.WithFlows(len(cuts)-1, flows)
}

// SimOptions selects the simulation configuration.
type SimOptions struct {
	// MessageBased enables the co-designed big-gradient flow control
	// (§IV-B); off means conventional 256 B packets.
	MessageBased bool

	// PacketLevel selects the packet-granularity engine instead of the
	// fluid flow-level engine. Slower, higher fidelity.
	PacketLevel bool

	// PayloadBytes overrides the packet payload (default 256).
	PayloadBytes int

	// DisableLockstep turns off the NI lockstep injection regulation
	// (§IV-A), used by the lockstep ablation.
	DisableLockstep bool
}

func (o SimOptions) internal() network.Config {
	cfg := network.DefaultConfig()
	cfg.MessageBased = o.MessageBased
	if o.PayloadBytes > 0 {
		cfg.PayloadBytes = o.PayloadBytes
	}
	if o.DisableLockstep {
		cfg.Lockstep = false
	}
	return cfg
}

// SimResult reports a simulated all-reduce.
type SimResult struct {
	Cycles        uint64
	BandwidthGBps float64
	PayloadBytes  int64
	WireBytes     int64
}

// Simulate runs the schedule through the selected network engine and
// reports completion time and achieved bandwidth (data size / time).
// Each call builds the engine state from scratch; callers re-simulating
// the same schedule many times (parameter sweeps, what-if studies)
// should build a Simulator once and call its Run repeatedly.
func (s *Schedule) Simulate(opt SimOptions) (SimResult, error) {
	sim, err := s.NewSimulator(opt)
	if err != nil {
		return SimResult{}, err
	}
	return sim.Run()
}

// Simulator is a reusable network simulator for one schedule and one
// simulation configuration. Run may be called repeatedly; the engine
// keeps all backing storage (event heaps, scratch arrays, arenas)
// between runs, so steady-state re-simulation performs no heap
// allocations. Runs are deterministic and cycle-identical to each other
// and to a one-shot Simulate with the same options.
type Simulator struct {
	elems  int
	fluid  *network.FluidSim
	packet *network.PacketSim
}

// NewSimulator validates the options and builds the reusable engine
// state for the schedule: a flow-level FluidSim by default, a
// packet-level PacketSim when opt.PacketLevel is set.
func (s *Schedule) NewSimulator(opt SimOptions) (*Simulator, error) {
	return s.newSimulator(opt, nil)
}

// newSimulator is NewSimulator with the engines' event sink set to tr
// (nil traces nothing).
func (s *Schedule) newSimulator(opt SimOptions, tr obs.Tracer) (*Simulator, error) {
	sim := &Simulator{elems: s.s.Elems}
	cfg := opt.internal()
	cfg.Tracer = tr
	var err error
	if opt.PacketLevel {
		sim.packet, err = network.NewPacketSim(s.s, cfg)
	} else {
		sim.fluid, err = network.NewFluidSim(s.s, cfg)
	}
	if err != nil {
		return nil, err
	}
	return sim, nil
}

// Run simulates the schedule and reports completion time and achieved
// bandwidth (data size / time).
func (sim *Simulator) Run() (SimResult, error) {
	var res *network.Result
	var err error
	if sim.packet != nil {
		res, err = sim.packet.Run()
	} else {
		res, err = sim.fluid.Run()
	}
	if err != nil {
		return SimResult{}, err
	}
	dataBytes := int64(sim.elems) * collective.WordSize
	return SimResult{
		Cycles:        uint64(res.Cycles),
		BandwidthGBps: network.GBps(res.BandwidthBytesPerCycle(dataBytes)),
		PayloadBytes:  res.PayloadBytes,
		WireBytes:     res.WireBytes,
	}, nil
}
