package multitree

import (
	"slices"

	"multitree/internal/algorithms"
	"multitree/internal/collective"
	"multitree/internal/network"
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

// Topology is an interconnection network instance.
type Topology struct {
	t *topology.Topology
}

// NewTorus returns an nx-by-ny 2D Torus with Table III links.
func NewTorus(nx, ny int) *Topology {
	return &Topology{t: topology.Torus(nx, ny, topology.DefaultLinkConfig())}
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
// topology.
func BuildSchedule(t *Topology, alg Algorithm, dataBytes int64) (*Schedule, error) {
	s, err := algorithms.Build(t.t, string(alg), int(dataBytes/collective.WordSize), algorithms.Options{})
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
}

func (o SimOptions) internal() network.Config {
	cfg := network.DefaultConfig()
	cfg.MessageBased = o.MessageBased
	return cfg
}

// SimResult reports a simulated all-reduce.
type SimResult struct {
	Cycles        uint64
	BandwidthGBps float64
	PayloadBytes  int64
	WireBytes     int64
}

// Simulate runs the schedule through the fluid flow-level network engine
// and reports completion time and achieved bandwidth (data size / time).
func (s *Schedule) Simulate(opt SimOptions) (SimResult, error) {
	res, err := network.SimulateFluid(s.s, opt.internal())
	if err != nil {
		return SimResult{}, err
	}
	dataBytes := int64(s.s.Elems) * collective.WordSize
	return SimResult{
		Cycles:        uint64(res.Cycles),
		BandwidthGBps: network.GBps(res.BandwidthBytesPerCycle(dataBytes)),
		PayloadBytes:  res.PayloadBytes,
		WireBytes:     res.WireBytes,
	}, nil
}
