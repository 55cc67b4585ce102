package core

import (
	"fmt"
	"math"

	"multitree/internal/collective"
	"multitree/internal/topology"
)

// This file implements the hybrid-parallel case of §VII-B: "When the
// parallelism strategy and DNN workload are determined, MULTITREE runs for
// the nodes that involve all-reduce communication." A subset all-reduce
// builds one schedule tree per participating node; non-participating nodes
// take no part in the collective, but in direct networks their integrated
// routers still forward traffic, so tree edges may pass through them.

// BuildSubset runs Algorithm 1 restricted to the member nodes (which
// must contain at least two distinct nodes): the same growth loop and
// options as BuildTrees, with one tree per member, rooted there in
// ascending node order, spanning the members only. It lowers the trees
// exactly as Build does; flow i is rooted at the i-th member.
func BuildSubset(topo *topology.Topology, members []topology.NodeID, elems int, opts Options) (*collective.Schedule, error) {
	set, err := memberSet(topo, members)
	if err != nil {
		return nil, err
	}
	return build(Algorithm+"-subset", topo, set, elems, opts)
}

// memberSet validates a member list and returns its node mask, or nil
// when the members are every node.
func memberSet(topo *topology.Topology, members []topology.NodeID) ([]bool, error) {
	n := topo.Nodes()
	isMember := make([]bool, n)
	count := 0
	for _, m := range members {
		if m < 0 || int(m) >= n {
			return nil, fmt.Errorf("multitree: member %d out of range", m)
		}
		if !isMember[m] {
			isMember[m] = true
			count++
		}
	}
	if count < 2 {
		return nil, fmt.Errorf("multitree: subset needs at least 2 distinct members, have %d", count)
	}
	if count == n {
		return nil, nil
	}
	return isMember, nil
}

// VerifySubsetAllReduce executes a subset schedule and checks that every
// member holds the sum over the members' inputs while every non-member's
// buffer is untouched.
func VerifySubsetAllReduce(s *collective.Schedule, members []topology.NodeID, inputs [][]float32) error {
	isMember := make([]bool, s.Topo.Nodes())
	for _, m := range members {
		isMember[m] = true
	}
	out, err := collective.Execute(s, inputs)
	if err != nil {
		return err
	}
	want := make([]float64, s.Elems)
	for node, v := range inputs {
		if !isMember[node] {
			continue
		}
		for i, x := range v {
			want[i] += float64(x)
		}
	}
	for node := range out {
		if !isMember[node] {
			for i := range out[node] {
				if out[node][i] != inputs[node][i] {
					return fmt.Errorf("core: subset all-reduce disturbed non-member %d", node)
				}
			}
			continue
		}
		for i, got := range out[node] {
			if diff := math.Abs(float64(got) - want[i]); diff > 1e-3*math.Max(1, math.Abs(want[i])) {
				return fmt.Errorf("core: subset all-reduce: member %d elem %d = %v, want %v",
					node, i, got, want[i])
			}
		}
	}
	return nil
}
