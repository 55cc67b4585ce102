// Package hdrm implements the EFLOPS baseline: recursive Halving-Doubling
// with Rank Mapping on a BiGraph fabric (§II-C, [29] of the paper).
//
// Recursive halving-doubling finishes an all-reduce in 2*log2(N) steps: a
// reduce-scatter phase where pair distances double and exchanged segments
// halve, then the mirror all-gather phase. On an arbitrary topology the
// long-distance pairs congest; EFLOPS instead *maps ranks to nodes* so
// that every communicating pair sits on opposite layers of the BiGraph,
// crossing exactly one inter-switch link.
//
// The layer property comes from parity: pairs at every step differ in
// exactly one rank bit, so placing even-popcount ranks on upper-layer
// nodes and odd-popcount ranks on lower-layer nodes guarantees each pair
// crosses the bipartite cut. Within a layer, ranks are then assigned to
// switch slots by a deterministic local search that eliminates same-step
// reuse of any single inter-switch link, reproducing EFLOPS's
// contention-free property.
package hdrm

import (
	"fmt"
	"math/bits"

	"multitree/internal/collective"
	"multitree/internal/topology"
)

// Algorithm is the schedule name used in reports.
const Algorithm = "hdrm"

// Build constructs the HDRM schedule for elems elements. The node count
// must be a power of two (a fundamental halving-doubling constraint).
// HDRM is designed for BiGraph topologies; Build accepts any topology and
// simply degrades to plain halving-doubling with identity mapping
// elsewhere, which is useful for contrast experiments.
func Build(topo *topology.Topology, elems int) (*collective.Schedule, error) {
	n := topo.Nodes()
	if n&(n-1) != 0 || n < 2 {
		return nil, fmt.Errorf("hdrm: node count %d is not a power of two", n)
	}
	rankToNode := rankMapping(topo)

	// Build the segment tree of exchanged ranges: level k (1-based) has
	// 2^k segments. flowID(level, index) indexes s.Flows.
	steps := bits.Len(uint(n)) - 1
	var flows []collective.Range
	levelBase := make([]int, steps+1)
	cur := []collective.Range{{Off: 0, Len: elems}}
	for k := 1; k <= steps; k++ {
		var next []collective.Range
		for _, r := range cur {
			half := collective.Partition(r.Len, 2)
			next = append(next,
				collective.Range{Off: r.Off, Len: half[0].Len},
				collective.Range{Off: r.Off + half[0].Len, Len: half[1].Len})
		}
		levelBase[k] = len(flows)
		flows = append(flows, next...)
		cur = next
	}
	s := &collective.Schedule{Algorithm: Algorithm, Topo: topo, Elems: elems, Flows: flows}
	// Each of the 2·steps exchanges sends n transfers, each but the
	// first exchange's waiting on its sender's latest receive.
	s.Reserve(2*steps*n, (2*steps-1)*n, 0)

	// segIdx[r] tracks which level-k segment rank r currently owns, as an
	// index within level k; owning segment i at level k means the range
	// flows[levelBase[k]+i].
	segIdx := make([]int, n)
	lastIn := make([]collective.TransferID, n)
	for i := range lastIn {
		lastIn[i] = -1
	}
	dep := func(r int) []collective.TransferID {
		if lastIn[r] < 0 {
			return nil
		}
		return lastIn[r : r+1]
	}

	// Reduce-scatter: at step k (1..steps), rank r pairs with r^bit,
	// bit = 1<<(k-1); the rank with bit clear keeps the first half of its
	// current segment and sends the second half, and vice versa.
	for k := 1; k <= steps; k++ {
		bit := 1 << (k - 1)
		newIdx := make([]int, n)
		pending := make([]collective.TransferID, n)
		for r := 0; r < n; r++ {
			peer := r ^ bit
			keepFirst := r&bit == 0
			kept, sent := 2*segIdx[r], 2*segIdx[r]+1
			if !keepFirst {
				kept, sent = sent, kept
			}
			pending[peer] = s.Add(collective.Transfer{
				Src: rankToNode[r], Dst: rankToNode[peer],
				Op: collective.Reduce, Flow: int32(levelBase[k] + sent),
				Step: int32(k),
			}, dep(r), nil)
			newIdx[r] = kept
		}
		copy(lastIn, pending)
		copy(segIdx, newIdx)
	}

	// All-gather: mirror order. At step j (1..steps), distance halves from
	// n/2 back down to 1; each rank sends its entire currently-owned
	// region (a level-(steps-j+1) segment) to its peer, both ranks ending
	// the step owning the level-(steps-j) parent segment.
	for j := 1; j <= steps; j++ {
		k := steps - j + 1 // level whose segments are being exchanged
		bit := 1 << (k - 1)
		pending := make([]collective.TransferID, n)
		for r := 0; r < n; r++ {
			peer := r ^ bit
			pending[peer] = s.Add(collective.Transfer{
				Src: rankToNode[r], Dst: rankToNode[peer],
				Op: collective.Gather, Flow: int32(levelBase[k] + segIdx[r]),
				Step: int32(steps + j),
			}, dep(r), nil)
		}
		copy(lastIn, pending)
		for r := 0; r < n; r++ {
			segIdx[r] /= 2
		}
	}
	return s, nil
}

// rankMapping returns the rank -> node permutation. On a BiGraph topology
// (even node ids on upper switches, odd on lower, as built by
// topology.BiGraph) it applies the popcount layer split plus a local
// search that de-conflicts inter-switch links; elsewhere it is identity.
func rankMapping(topo *topology.Topology) []topology.NodeID {
	n := topo.Nodes()
	m := make([]topology.NodeID, n)
	if !isBiGraphLike(topo) {
		for i := range m {
			m[i] = topology.NodeID(i)
		}
		return m
	}
	// Layer split: even-popcount ranks -> upper slots, odd -> lower slots.
	// Among any pair {2m, 2m+1} exactly one rank has even popcount, so the
	// slot index r>>1 is a bijection within each layer.
	for r := 0; r < n; r++ {
		slot := r >> 1
		if bits.OnesCount(uint(r))%2 == 0 {
			m[r] = topology.NodeID(2 * slot) // upper-layer node
		} else {
			m[r] = topology.NodeID(2*slot + 1) // lower-layer node
		}
	}
	refineMapping(topo, m)
	return m
}

// isBiGraphLike reports whether the topology was built by
// topology.BiGraph: indirect, and node parity determines the switch layer.
func isBiGraphLike(topo *topology.Topology) bool {
	if topo.Class() != topology.Indirect || topo.Nodes()%2 != 0 {
		return false
	}
	// Heuristic: BiGraph names start with "bigraph".
	return len(topo.Name()) >= 7 && topo.Name()[:7] == "bigraph"
}

// refineMapping greedily swaps same-layer slot assignments to minimize the
// worst same-step reuse of a single inter-switch link. The search is
// deterministic: repeated full passes of improving swaps until a fixed
// point.
func refineMapping(topo *topology.Topology, m []topology.NodeID) {
	n := len(m)
	steps := bits.Len(uint(n)) - 1
	cost := func() int {
		total := 0
		for k := 1; k <= steps; k++ {
			use := map[topology.LinkID]int{}
			bit := 1 << (k - 1)
			for r := 0; r < n; r++ {
				for _, l := range topo.Route(m[r], m[r^bit]) {
					use[l]++
					if use[l] > 1 {
						total += 1
					}
				}
			}
		}
		return total
	}
	best := cost()
	for pass := 0; pass < 8 && best > 0; pass++ {
		improved := false
		for i := 0; i < n && best > 0; i++ {
			for j := i + 1; j < n; j++ {
				// Swap only within a layer to preserve the parity property.
				if (m[i]^m[j])&1 != 0 {
					continue
				}
				m[i], m[j] = m[j], m[i]
				if c := cost(); c < best {
					best = c
					improved = true
				} else {
					m[i], m[j] = m[j], m[i]
				}
			}
		}
		if !improved {
			break
		}
	}
}
