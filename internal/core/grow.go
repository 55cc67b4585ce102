package core

import (
	"fmt"

	"multitree/internal/collective"
	"multitree/internal/obs"
	"multitree/internal/topology"
)

// This file is the tree-growth engine behind BuildTrees and
// BuildSubsetTrees: Algorithm 1's main loop over a word-packed per-step
// link pool, with memoized search failures. Each round gives every
// unfinished tree one turn in order, and each turn commits before the
// next tree searches — the paper's sequential greedy, run as written.
// Memoization only skips work whose outcome is already proven, so the
// trees are exactly the greedy's.
//
// Three facts carry all of the pruning, each a consequence of the same
// step invariant (within a time step the link pool only shrinks, a tree
// only grows, and the eligible-parent lists are frozen):
//
//   - A tree whose turn found no free path stays stuck for the rest of
//     the step (stalledAt).
//   - A parent whose search failed this step keeps failing this step
//     (treeMemo.failedAt).
//   - A parent whose search failed without meeting one occupied link has
//     seen its entire reachable neighborhood already in the tree; it is
//     dead for every future step too (treeMemo.dead).
//
// Growth runs on one goroutine whatever Options.Workers says; the
// workers parallelize only the lowering that follows growth.

// growth is the scratch state of one Algorithm 1 run.
type growth struct {
	topo *topology.Topology
	opts Options
	k    int // trees
	span int // nodes in a complete tree: every node, or a subset's member count

	trees    []*collective.Tree
	inTree   [][]bool
	attached []int               // nodes in each tree, root included
	parents  [][]topology.NodeID // usable as parents (added in previous steps), in addition order
	pending  [][]topology.NodeID // added during the current step, merged at step end
	memo     []*treeMemo

	// stalledAt[ti] stamps the step whose link pool tree ti exhausted:
	// its turn found no free path, so it sits out the step's remaining
	// rounds.
	stalledAt []int32

	ecc []int // by root node id

	avail  bitset // the step's link pool: set = free
	finder *pathFinder

	c obs.PlanCounters

	// treeOrder scratch, reused every round.
	orderIdx []int
	orderRem []int
}

// growTrees is the tree-growth phase body: Algorithm 1's main loop with
// the per-step link allocation. It always maintains the PlanCounters —
// integer adds cost nothing worth branching around — and reports per-step
// progress only when an observer is attached. A non-nil members mask
// grows the trees of a subset all-reduce (§VII-B) over the marked nodes
// only; nil grows them over every node.
func growTrees(topo *topology.Topology, members []bool, opts Options) ([]*collective.Tree, obs.PlanCounters, error) {
	g, err := newGrowth(topo, members, opts)
	if err != nil {
		return nil, obs.PlanCounters{}, err
	}
	return g.run()
}

func newGrowth(topo *topology.Topology, members []bool, opts Options) (*growth, error) {
	n := topo.Nodes()
	// One tree per participating node, rooted there, in ascending node
	// order; Options.Trees keeps the first few.
	roots := make([]topology.NodeID, 0, n)
	for v := 0; v < n; v++ {
		if members == nil || members[v] {
			roots = append(roots, topology.NodeID(v))
		}
	}
	span := len(roots)
	if span < 2 {
		return nil, fmt.Errorf("multitree: need at least 2 nodes, have %d", span)
	}
	if opts.Trees > 0 && opts.Trees < span {
		roots = roots[:opts.Trees]
	}
	k := len(roots)
	g := &growth{topo: topo, opts: opts, k: k, span: span}
	g.trees = make([]*collective.Tree, k)
	g.inTree = make([][]bool, k)
	g.attached = make([]int, k)
	g.parents = make([][]topology.NodeID, k)
	g.pending = make([][]topology.NodeID, k)
	g.memo = make([]*treeMemo, k)
	g.stalledAt = make([]int32, k)
	for i, root := range roots {
		g.trees[i] = collective.NewTree(i, root, n)
		g.trees[i].Members = members
		g.inTree[i] = make([]bool, n)
		g.inTree[i][root] = true
		g.attached[i] = 1
		g.parents[i] = []topology.NodeID{root}
		g.memo[i] = newTreeMemo(n)
	}
	if opts.Order == ByRemainingHeight {
		g.ecc = eccentricities(topo, members)
		for _, root := range roots {
			if g.ecc[root] == EccUnreachable {
				u := newEccScratch(topo, members).firstUnreachable(int(root))
				return nil, fmt.Errorf("multitree: root %d cannot reach node %d on %s: refusing to grow a partial tree", root, u, topo.Name())
			}
		}
	}
	g.avail = newBitset(len(topo.Links()))
	g.finder = newPathFinder(topo, opts.ReverseNeighborOrder)
	g.finder.members = members
	g.finder.shortestFirst = opts.ShortestPathFirst
	g.orderIdx = make([]int, k)
	g.orderRem = make([]int, k)
	return g, nil
}

func (g *growth) run() ([]*collective.Tree, obs.PlanCounters, error) {
	o := g.opts.Observer
	// Every tree must attach all other nodes: the unit of progress.
	totalAttach := int64(g.k) * int64(g.span-1)
	for t := int32(1); ; t++ {
		if complete(g.attached, g.span) {
			g.finder.fold(&g.c)
			return g.trees, g.c, nil
		}
		if int(t) > 2*len(g.topo.Links())+2 {
			g.finder.fold(&g.c)
			return nil, g.c, fmt.Errorf("multitree: construction did not converge on %s", g.topo.Name())
		}
		// Start a new time step with a fresh topology graph (line 6).
		g.avail.fill()
		addedThisStep := 0
		for added := g.round(t); added > 0; added = g.round(t) {
			addedThisStep += added
		}
		if addedThisStep == 0 {
			g.finder.fold(&g.c)
			return nil, g.c, g.stallError(t)
		}
		g.c.Steps++
		if o != nil {
			o.PlanProgress(obs.PhaseTreeGrowth, g.c.NodesAttached, totalAttach)
		}
		// Nodes added this step become eligible parents next step.
		for ti := 0; ti < g.k; ti++ {
			g.parents[ti] = append(g.parents[ti], g.pending[ti]...)
			g.pending[ti] = g.pending[ti][:0]
			// Once dead parents dominate a tree's list, drop them (order
			// preserved). find skips them either way, so the trees built
			// are unchanged; the per-turn skip scans just stop paying for
			// them.
			if m := g.memo[ti]; m.deadCount > 32 && m.deadCount*4 > len(g.parents[ti]) {
				kept := g.parents[ti][:0]
				for _, p := range g.parents[ti] {
					if !m.dead[p] {
						kept = append(kept, p)
					}
				}
				g.parents[ti] = kept
				m.deadCount = 0
			}
		}
	}
}

// stallError diagnoses a step that attached nothing. A disconnected
// fabric (a fault plan that isolated nodes, or a hand-built partial
// topology) is the common cause; when some unfinished tree's root cannot
// reach a node of its tree over the static graph at all, name the
// witness pair instead of guessing.
func (g *growth) stallError(t int32) error {
	for ti, tr := range g.trees {
		if g.attached[ti] == g.span {
			continue
		}
		root := int(tr.Root)
		if u := newEccScratch(g.topo, tr.Members).firstUnreachable(root); u >= 0 {
			return fmt.Errorf("multitree: root %d cannot reach node %d on %s: topology is disconnected", root, u, g.topo.Name())
		}
		break // this root reaches everything; no cheap witness, report generically
	}
	return fmt.Errorf("multitree: no progress at step %d on %s (disconnected graph?)", t, g.topo.Name())
}

// round gives every unfinished, unstalled tree one turn in order,
// committing each result before the next tree searches.
func (g *growth) round(t int32) int {
	added := 0
	for _, ti := range g.order() {
		if g.attached[ti] == g.span || g.stalledAt[ti] == t {
			continue
		}
		child, parent, path := g.finder.find(g.parents[ti], g.inTree[ti], g.avail, g.memo[ti], t)
		if child < 0 {
			g.stalledAt[ti] = t
			continue
		}
		g.commit(ti, child, parent, path, t)
		added++
	}
	return added
}

// commit claims the path from the step's pool and attaches child to tree
// ti.
func (g *growth) commit(ti int, child, parent topology.NodeID, path []topology.LinkID, t int32) {
	for _, l := range path {
		g.avail.clear(int(l))
	}
	g.c.LinksAllocated += int64(len(path))
	g.trees[ti].SetEdge(parent, child, int(t))
	g.trees[ti].Path[child] = path
	g.inTree[ti][child] = true
	g.attached[ti]++
	g.c.NodesAttached++
	if g.attached[ti] == g.span {
		g.c.TreesGrown++
	}
	g.pending[ti] = append(g.pending[ti], child)
}

// order returns the indices of the trees in the order they take turns
// this round, into scratch reused across rounds.
func (g *growth) order() []int {
	idx := g.orderIdx
	for i := range idx {
		idx[i] = i
	}
	if g.opts.Order != ByRemainingHeight {
		return idx // ascending root id
	}
	remaining := g.orderRem
	for i, tr := range g.trees {
		remaining[i] = g.ecc[tr.Root] - tr.Height()
	}
	// Insertion sort, descending remaining height, ties by root id.
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0; j-- {
			a, b := idx[j], idx[j-1]
			if remaining[a] > remaining[b] || (remaining[a] == remaining[b] && a < b) {
				idx[j], idx[j-1] = idx[j-1], idx[j]
			} else {
				break
			}
		}
	}
	return idx
}

func complete(attached []int, span int) bool {
	for _, m := range attached {
		if m != span {
			return false
		}
	}
	return true
}

// EccUnreachable is the eccentricity sentinel for a source that cannot
// reach every node. On degraded or disconnected topologies the max-hop
// figure is undefined; silently skipping the unreachable nodes (the old
// behavior) under-scored exactly the roots that cannot grow a full tree,
// so callers must treat a sentinel root as an error, not a short tree.
const EccUnreachable = -1

// eccentricities returns each node's maximum hop distance to any other
// node (any member, when members is non-nil), measured over the full
// (unallocated) topology graph, traversing switches freely, or
// EccUnreachable for sources that cannot reach every such node. It
// estimates the final height of the tree rooted there.
func eccentricities(topo *topology.Topology, members []bool) []int {
	out := make([]int, topo.Nodes())
	s := newEccScratch(topo, members)
	for src := range out {
		out[src] = s.from(src)
	}
	return out
}

// eccScratch is the reusable hop-distance state for eccentricities.
type eccScratch struct {
	topo    *topology.Topology
	members []bool // nodes whose distance counts; nil: every node
	dist    []int32
	queue   []int32
}

func newEccScratch(topo *topology.Topology, members []bool) *eccScratch {
	return &eccScratch{topo: topo, members: members, dist: make([]int32, topo.Vertices())}
}

func (s *eccScratch) from(src int) int {
	s.queue = s.topo.HopDistances(src, s.dist, s.queue)
	// Node-distance in construction steps: switch hops are internal to a
	// single scheduled edge, so eccentricity counts destination nodes
	// only. A conservative proxy is the max node distance in links, which
	// orders roots correctly on grids and trees alike.
	ecc := 0
	for d := 0; d < s.topo.Nodes(); d++ {
		if s.members != nil && !s.members[d] {
			continue
		}
		if s.dist[d] < 0 {
			return EccUnreachable
		}
		ecc = max(ecc, int(s.dist[d]))
	}
	return ecc
}

// firstUnreachable returns the lowest-numbered node (member, when
// members is set) src cannot reach, or -1 when every such node is
// reachable.
func (s *eccScratch) firstUnreachable(src int) topology.NodeID {
	s.queue = s.topo.HopDistances(src, s.dist, s.queue)
	for d := 0; d < s.topo.Nodes(); d++ {
		if s.dist[d] < 0 && (s.members == nil || s.members[d]) {
			return topology.NodeID(d)
		}
	}
	return -1
}
