package core

import (
	"fmt"
	"sort"

	"multitree/internal/collective"
	"multitree/internal/topology"
)

// This file implements the broader collective operations of §VII-B:
// "Reduce-scatter and all-gather are naturally supported ... The
// all-gather trees can also easily support all-to-all collective in recent
// DNN workloads such as DLRM."

// BuildReduceScatter constructs only the reduce phase of MultiTree: after
// it completes, node i holds the fully reduced flow-i segment (and stale
// copies of the rest). Steps run 1..tot.
func BuildReduceScatter(topo *topology.Topology, elems int, opts Options) (*collective.Schedule, error) {
	return buildPhase(Algorithm+"-rs", topo, elems, opts, collective.Reduce)
}

// BuildAllGather constructs only the broadcast phase: it assumes node i
// already holds the final flow-i segment and distributes all segments to
// all nodes. Steps run 1..tot.
func BuildAllGather(topo *topology.Topology, elems int, opts Options) (*collective.Schedule, error) {
	return buildPhase(Algorithm+"-ag", topo, elems, opts, collective.Gather)
}

// buildPhase lowers the all-reduce trees and keeps one phase of it.
func buildPhase(alg string, topo *topology.Topology, elems int, opts Options, op collective.Op) (*collective.Schedule, error) {
	trees, err := BuildTrees(topo, opts)
	if err != nil {
		return nil, err
	}
	full, err := collective.TreesToSchedule(alg, topo, elems, trees)
	if err != nil {
		return nil, err
	}
	return phaseOnly(full, op), nil
}

// phaseOnly extracts one opcode's transfers into a fresh schedule,
// remapping ids and dropping cross-phase dependencies (which, for the
// reduce phase, never point into the gather phase). The gather phase,
// steps tot+1..2tot of the full schedule, shifts down to 1..tot.
func phaseOnly(full *collective.Schedule, op collective.Op) *collective.Schedule {
	out := &collective.Schedule{
		Algorithm: full.Algorithm,
		Topo:      full.Topo,
		Elems:     full.Elems,
		Flows:     full.Flows,
	}
	shift := int32(0)
	if op == collective.Gather {
		shift = int32(full.Steps / 2)
	}
	remap := make([]collective.TransferID, len(full.Transfers))
	for i := range remap {
		remap[i] = -1
	}
	var deps []collective.TransferID
	for i := range full.Transfers {
		t := full.Transfers[i]
		if t.Op != op {
			continue
		}
		deps = deps[:0]
		for _, d := range full.Deps(i) {
			if remap[d] >= 0 {
				deps = append(deps, remap[d])
			}
		}
		t.Step -= shift
		remap[i] = out.Add(t, deps, full.Path(i))
	}
	return out
}

// BuildAllToAll constructs an all-to-all (personalized exchange) schedule
// over the all-gather trees: node i's message for node j rides tree j's
// reduce path from i up to root j, hop by hop, without reduction. elems is
// the size of ONE personalized message, so each node injects
// (N-1) * elems elements.
//
// Flows are indexed (src, dstTree): flow = src*N + dst carries src's
// message for dst; the executable semantics use Gather (copy-forward), so
// collective.Execute can verify delivery.
func BuildAllToAll(topo *topology.Topology, elems int, opts Options) (*collective.Schedule, error) {
	trees, err := BuildTrees(topo, opts)
	if err != nil {
		return nil, err
	}
	n := topo.Nodes()
	s := &collective.Schedule{
		Algorithm: Algorithm + "-a2a",
		Topo:      topo,
		Elems:     n * n * elems,
	}
	// Flow (i, j) occupies segment (i*n + j) * elems. The diagonal (i == j)
	// segments exist but never move.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s.Flows = append(s.Flows, collective.Range{Off: (i*n + j) * elems, Len: elems})
		}
	}
	tot := 0
	for _, tr := range trees {
		if h := tr.Height(); h > tot {
			tot = h
		}
	}
	for j, tr := range trees {
		// Messages climb toward root j along the reversed tree edges; a
		// node forwards a message one step after receiving it. Process
		// deepest senders first so dependencies exist.
		type hop struct {
			node topology.NodeID
			step int // AGStep of the node (depth proxy)
		}
		var order []hop
		for node := range tr.Parent {
			if topology.NodeID(node) != tr.Root {
				order = append(order, hop{topology.NodeID(node), tr.AGStep[node]})
			}
		}
		sort.Slice(order, func(a, b int) bool {
			if order[a].step != order[b].step {
				return order[a].step > order[b].step
			}
			return order[a].node < order[b].node
		})
		// carrying[v] lists, per origin i, the transfer that delivered i's
		// message to v (or -1 if v == i).
		carrying := make([][]collective.TransferID, n)
		for v := range carrying {
			carrying[v] = make([]collective.TransferID, n)
			for i := range carrying[v] {
				carrying[v][i] = -1
			}
		}
		arrivedAt := make([][]bool, n)
		for v := range arrivedAt {
			arrivedAt[v] = make([]bool, n)
			arrivedAt[v][v] = true
		}
		for _, h := range order {
			child := h.node
			parent := tr.Parent[child]
			step := tot - h.step + 1
			path := reversePathA2A(topo, tr.Path[child])
			// The child forwards every origin message in its subtree,
			// including its own. Subtree members are exactly the nodes
			// whose root-ward path passes child; we accumulate them by
			// processing deepest-first.
			for origin := 0; origin < n; origin++ {
				if !arrivedAt[child][origin] {
					continue
				}
				var deps []collective.TransferID
				if carrying[child][origin] >= 0 {
					deps = carrying[child][origin : origin+1]
				}
				id := s.Add(collective.Transfer{
					Src: child, Dst: parent,
					Op: collective.Gather, Flow: int32(origin*n + j),
					Step: int32(step),
				}, deps, path)
				arrivedAt[parent][origin] = true
				carrying[parent][origin] = id
			}
		}
	}
	s.Steps = tot
	return s, nil
}

// reversePathA2A mirrors collective.TreesToSchedule's path reversal.
func reversePathA2A(topo *topology.Topology, path []topology.LinkID) []topology.LinkID {
	if path == nil {
		return nil
	}
	out := make([]topology.LinkID, len(path))
	for i, id := range path {
		out[len(path)-1-i] = topo.ReverseLink(topo.Link(id))
	}
	return out
}

// VerifyAllToAll executes an all-to-all schedule and checks that every
// destination received every origin's personalized message.
func VerifyAllToAll(s *collective.Schedule, topo *topology.Topology, elems int) error {
	n := topo.Nodes()
	in := make([][]float32, n)
	for i := range in {
		in[i] = make([]float32, s.Elems)
		for j := 0; j < n; j++ {
			for k := 0; k < elems; k++ {
				// Node i's message for j is a constant pattern recognizable
				// at the destination.
				in[i][(i*n+j)*elems+k] = float32(100*i + j + 1)
			}
		}
	}
	out, err := collective.Execute(s, in)
	if err != nil {
		return err
	}
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			if i == j {
				continue
			}
			off := (i*n + j) * elems
			for k := 0; k < elems; k++ {
				if got, want := out[j][off+k], float32(100*i+j+1); got != want {
					return fmt.Errorf("core: all-to-all: node %d slot (%d,%d)[%d] = %v, want %v",
						j, i, j, k, got, want)
				}
			}
		}
	}
	return nil
}
