// Package dbtree implements the Double Binary Tree all-reduce baseline
// (Sanders et al., also in NCCL; §II-C of the paper). Two logical binary
// trees are built so that the leaves of one are internal nodes of the
// other; each tree reduces and then broadcasts half of the gradient, with
// chunked pipelining so every level of both trees streams concurrently.
// Communications of the two trees are interleaved on even/odd steps so a
// node never sends (or receives) for both trees at the same instant, as
// Fig. 4b of the paper shows.
//
// DBTree is topology-oblivious: tree edges connect logical ranks, so on a
// Mesh or Torus they cross multiple physical hops and congest the network
// for large messages — the failure mode MultiTree's topology awareness
// removes.
package dbtree

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"multitree/internal/collective"
	"multitree/internal/topology"
)

// Algorithm is the schedule name used in reports.
const Algorithm = "dbtree"

// DefaultPipelineChunks is the number of pipeline chunks per tree used
// when Build is called with chunks <= 0. NCCL-style implementations choose
// chunk counts to fill the pipeline; each tree's half is split this many
// ways so that all tree levels stream concurrently.
const DefaultPipelineChunks = 16

// tree holds one logical binary tree as parent pointers over ranks.
type tree struct {
	parent []int
	// depth[r] is the edge distance from the root.
	depth []int
	// height[r] is the height of the subtree rooted at r (leaf = 0).
	height []int
	root   int
}

// Build constructs the double-binary-tree schedule. chunks is the pipeline
// depth per tree (<= 0 selects DefaultPipelineChunks). The node count must
// be at least 2.
func Build(topo *topology.Topology, elems, chunks int) (*collective.Schedule, error) {
	n := topo.Nodes()
	if n < 2 {
		return nil, fmt.Errorf("dbtree: need at least 2 nodes, have %d", n)
	}
	if chunks <= 0 {
		chunks = DefaultPipelineChunks
	}
	// Never split below one element per flow.
	if max := elems / (2 * chunks); max == 0 {
		chunks = 1
	}

	t1 := inorderTree(n)
	t2 := shift(t1)

	// Flows: halves split into pipeline chunks. Tree ti chunk j -> flow
	// ti*chunks + j.
	halves := collective.Partition(elems, 2)
	var flows []collective.Range
	for _, h := range halves {
		for _, c := range collective.Partition(h.Len, chunks) {
			flows = append(flows, collective.Range{Off: h.Off + c.Off, Len: c.Len})
		}
	}
	// Sized exactly: each tree's n-1 edges carry every chunk up and down.
	// A reduce waits on the sender's children, at most n-1 per tree and
	// chunk; a broadcast on at most two transfers.
	s := &collective.Schedule{Algorithm: Algorithm, Topo: topo, Elems: elems, Flows: flows}
	s.Reserve(4*(n-1)*chunks, 6*(n-1)*chunks, 0)

	for ti, tr := range []*tree{t1, t2} {
		buildTreeSchedule(s, tr, ti, chunks)
	}
	return s, nil
}

// buildTreeSchedule emits the pipelined reduce+broadcast transfers for one
// tree. Steps are doubled and offset by the tree index so tree 0 uses odd
// steps and tree 1 even steps (the paper's black/red interleave).
func buildTreeSchedule(s *collective.Schedule, tr *tree, ti, chunks int) {
	n := len(tr.parent)
	flow := func(j int) int32 { return int32(ti*chunks + j) }
	step := func(logical int) int32 { return int32(2*logical - 1 + ti) }

	// Reduce: rank r sends chunk j to its parent at logical step
	// height(r)+1+j — exactly one step after its deepest child subtree
	// delivered chunk j.
	// reduceRecv[r][j] lists reduce transfers into r for chunk j.
	reduceRecv := make([][][]collective.TransferID, n)
	for r := range reduceRecv {
		reduceRecv[r] = make([][]collective.TransferID, chunks)
	}
	// Emit in order of sender height so dependencies already exist.
	byHeight := ranksBy(tr.height)
	maxReduceLogical := 0
	for _, r := range byHeight {
		if r == tr.root {
			continue
		}
		for j := 0; j < chunks; j++ {
			logical := tr.height[r] + 1 + j
			if logical > maxReduceLogical {
				maxReduceLogical = logical
			}
			id := s.Add(collective.Transfer{
				Src: topology.NodeID(r), Dst: topology.NodeID(tr.parent[r]),
				Op: collective.Reduce, Flow: flow(j), Step: step(logical),
			}, reduceRecv[r][j], nil)
			p := tr.parent[r]
			reduceRecv[p][j] = append(reduceRecv[p][j], id)
		}
	}

	// Broadcast: the root sends chunk j to its children once its reduction
	// of chunk j completed; a node at depth d forwards one logical step
	// after receiving.
	rootDone := maxReduceLogical
	gatherIn := make([][]collective.TransferID, n)
	for r := range gatherIn {
		gatherIn[r] = make([]collective.TransferID, chunks)
		for j := range gatherIn[r] {
			gatherIn[r][j] = -1
		}
	}
	byDepth := ranksBy(tr.depth)
	for _, r := range byDepth {
		if r == tr.root {
			continue
		}
		p := tr.parent[r]
		for j := 0; j < chunks; j++ {
			var deps []collective.TransferID
			if p == tr.root {
				deps = reduceRecv[tr.root][j]
			} else if gatherIn[p][j] >= 0 {
				deps = gatherIn[p][j : j+1]
			}
			logical := rootDone + tr.depth[r] + j
			gatherIn[r][j] = s.Add(collective.Transfer{
				Src: topology.NodeID(p), Dst: topology.NodeID(r),
				Op: collective.Gather, Flow: flow(j), Step: step(logical),
			}, deps, nil)
		}
	}
}

// inorderTree builds the Sanders in-order binary tree over ranks 0..n-1
// using 1-based positions p = rank+1: a position's height in the tree is
// the number of trailing zeros of p, its parent is p +/- 2^h (choosing the
// in-order side, clipped to the range), and the root is the largest power
// of two <= n. Odd positions — even ranks — are the leaves, so the
// shifted second tree's leaves are the odd ranks and no rank is a leaf in
// both: the two-tree full-bandwidth property.
func inorderTree(n int) *tree {
	t := &tree{
		parent: make([]int, n),
		depth:  make([]int, n),
		height: make([]int, n),
	}
	for p := 1; p <= n; p++ {
		pp := parentPos(p, n)
		if pp == 0 {
			t.parent[p-1] = -1
			t.root = p - 1
		} else {
			t.parent[p-1] = pp - 1
		}
	}
	computeDepths(t)
	computeHeights(t)
	return t
}

// parentPos returns the 1-based parent position of p in an n-position
// in-order tree, or 0 for the root.
func parentPos(p, n int) int {
	h := bits.TrailingZeros(uint(p))
	up, down := p+1<<h, p-1<<h
	if (p>>(h+1))&1 == 0 && up <= n {
		return up
	}
	return down // 0 marks the root (p is the largest power of two <= n)
}

// shift relabels rank r as (r+1) mod n — the NCCL "shift by one" trick
// that turns the first tree's even-rank leaves into odd-rank leaves.
func shift(src *tree) *tree {
	n := len(src.parent)
	t := &tree{
		parent: make([]int, n),
		depth:  make([]int, n),
		height: make([]int, n),
	}
	for r := 0; r < n; r++ {
		m := (r + 1) % n
		if src.parent[r] < 0 {
			t.parent[m] = -1
			t.root = m
		} else {
			t.parent[m] = (src.parent[r] + 1) % n
		}
		t.depth[m] = src.depth[r]
	}
	computeHeights(t)
	return t
}

// computeDepths fills depth from parent pointers.
func computeDepths(t *tree) {
	var depth func(r int) int
	depth = func(r int) int {
		if t.parent[r] < 0 {
			return 0
		}
		if t.depth[r] == 0 && r != t.root {
			t.depth[r] = depth(t.parent[r]) + 1
		}
		return t.depth[r]
	}
	for r := range t.parent {
		depth(r)
	}
}

func computeHeights(t *tree) {
	// Height = max over children of height+1; compute by scanning ranks in
	// decreasing depth order.
	order := ranksBy(t.depth)
	for i := len(order) - 1; i >= 0; i-- {
		r := order[i]
		if p := t.parent[r]; p >= 0 && t.height[r]+1 > t.height[p] {
			t.height[p] = t.height[r] + 1
		}
	}
}

// ranksBy returns the ranks sorted by increasing key (depth puts the
// root first, height puts leaves first), ties broken by rank.
func ranksBy(key []int) []int {
	order := make([]int, len(key))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(key[a], key[b]), cmp.Compare(a, b))
	})
	return order
}
