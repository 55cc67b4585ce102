package multitree

import (
	"fmt"
	"math"

	"multitree/internal/collective"
	"multitree/internal/core"
	"multitree/internal/topology"
)

// The broader collectives of §VII-B, built on the MultiTree schedule
// trees: standalone reduce-scatter and all-gather for hybrid-parallel
// training, and the all-to-all personalized exchange used by
// embedding-heavy workloads such as DLRM.

// BuildReduceScatter constructs a MultiTree reduce-scatter of dataBytes:
// after execution node i holds the fully reduced i-th segment.
func BuildReduceScatter(t *Topology, dataBytes int64) (*Schedule, error) {
	return buildCollective(t, dataBytes, core.BuildReduceScatter, verifyReduceScatter)
}

// BuildAllGather constructs a MultiTree all-gather of dataBytes: node i
// starts owning the i-th segment and every node ends with all segments.
func BuildAllGather(t *Topology, dataBytes int64) (*Schedule, error) {
	return buildCollective(t, dataBytes, core.BuildAllGather, verifyAllGather)
}

// BuildAllToAll constructs a MultiTree all-to-all in which every node
// sends a personalized message of perMessageBytes to every other node,
// routed along the schedule trees.
func BuildAllToAll(t *Topology, perMessageBytes int64) (*Schedule, error) {
	return buildCollective(t, perMessageBytes, core.BuildAllToAll, func(s *collective.Schedule) error {
		return core.VerifyAllToAll(s, s.Topo, s.Elems/(s.Topo.Nodes()*s.Topo.Nodes()))
	})
}

// BuildSubsetAllReduce constructs a MultiTree all-reduce over a subset of
// the topology's nodes — the hybrid-parallel case of §VII-B where only
// the data-parallel replicas exchange gradients. Non-member nodes are
// bystanders: in direct networks their routers may forward member
// traffic, but their buffers are untouched.
func BuildSubsetAllReduce(t *Topology, members []int, dataBytes int64) (*Schedule, error) {
	ids := make([]topology.NodeID, len(members))
	for i, m := range members {
		ids[i] = topology.NodeID(m)
	}
	build := func(topo *topology.Topology, elems int, opts core.Options) (*collective.Schedule, error) {
		return core.BuildSubset(topo, ids, elems, opts)
	}
	return buildCollective(t, dataBytes, build, func(s *collective.Schedule) error {
		return core.VerifySubsetAllReduce(s, ids, collective.RampInputs(s.Topo.Nodes(), s.Elems))
	})
}

// buildCollective builds one of the collectives above with the
// topology's default options and keeps the check Verify runs on it.
func buildCollective(t *Topology, dataBytes int64,
	build func(*topology.Topology, int, core.Options) (*collective.Schedule, error),
	verify func(*collective.Schedule) error) (*Schedule, error) {
	elems, err := elemsOf(dataBytes)
	if err != nil {
		return nil, err
	}
	s, err := build(t.t, elems, core.DefaultOptions(t.t))
	if err != nil {
		return nil, err
	}
	return &Schedule{s: s, verify: verify}, nil
}

// verifyReduceScatter executes s and checks that node i ends with the
// reduced flow-i segment.
func verifyReduceScatter(s *collective.Schedule) error {
	in := collective.RampInputs(s.Topo.Nodes(), s.Elems)
	out, err := collective.Execute(s, in)
	if err != nil {
		return err
	}
	for node := range out {
		seg := s.Flows[node]
		for i := seg.Off; i < seg.End(); i++ {
			want := 0.0
			for _, v := range in {
				want += float64(v[i])
			}
			if got := float64(out[node][i]); math.Abs(got-want) > 1e-4*math.Max(1, math.Abs(want)) {
				return fmt.Errorf("multitree: reduce-scatter: node %d elem %d = %v, want %v", node, i, got, want)
			}
		}
	}
	return nil
}

// verifyAllGather executes s with node i owning segment i (value i+1,
// zeros elsewhere) and checks that every node ends with every segment.
func verifyAllGather(s *collective.Schedule) error {
	n := s.Topo.Nodes()
	in := make([][]float32, n)
	for node := range in {
		in[node] = make([]float32, s.Elems)
		seg := s.Flows[node]
		for i := seg.Off; i < seg.End(); i++ {
			in[node][i] = float32(node + 1)
		}
	}
	out, err := collective.Execute(s, in)
	if err != nil {
		return err
	}
	for node := range out {
		for owner := 0; owner < n; owner++ {
			seg := s.Flows[owner]
			for i := seg.Off; i < seg.End(); i++ {
				if got := out[node][i]; got != float32(owner+1) {
					return fmt.Errorf("multitree: all-gather: node %d elem %d (segment %d) = %v, want %v",
						node, i, owner, got, float32(owner+1))
				}
			}
		}
	}
	return nil
}

func elemsOf(dataBytes int64) (int, error) {
	elems := int(dataBytes / collective.WordSize)
	if elems < 1 {
		return 0, fmt.Errorf("multitree: data size %d bytes is below one element", dataBytes)
	}
	return elems, nil
}
