package core

import (
	"fmt"

	"multitree/internal/collective"
	"multitree/internal/obs"
	"multitree/internal/topology"
)

// This file is the tree-growth engine behind BuildTrees and
// BuildSubset: Algorithm 1's main loop over a word-packed per-step
// link pool. Each round gives every unfinished tree one turn in order,
// and each turn commits before the next tree searches — the paper's
// sequential greedy, run as written.
//
// Each tree has one search cursor per step (growth.next). Within a step
// the link pool only shrinks and the tree only grows, so whatever a turn
// proved unable to extend the tree stays unable until the step ends; the
// next turn resumes from the cursor instead of from the start, and the
// trees are exactly the greedy's. On switchless fabrics with full
// membership (every mesh and torus) the cursor walks a list of candidate
// links (pathFinder.scan); on every other fabric it walks the parent list
// for the breadth-first search (pathFinder.find).
//
// Growth runs on one goroutine whatever Options.Workers says; the
// workers parallelize only the lowering that follows growth.

// growth is the scratch state of one Algorithm 1 run.
type growth struct {
	topo *topology.Topology
	opts Options
	span int // trees, and nodes in a complete tree: every node, or a subset's member count

	trees    []*collective.Tree
	inTree   [][]bool
	attached []int               // nodes in each tree, root included
	pending  [][]topology.NodeID // added during the current step, merged when the next starts

	// next[ti] is tree ti's search cursor into cands[ti] or parents[ti].
	// It restarts at 0 every step; a miss sets it to -1, and the tree
	// sits out the step's remaining rounds.
	next []int

	// cands[ti] lists the out-links of tree ti's nodes (added in previous
	// steps) that lead out of the tree, as (link, dst) pairs in
	// parent-addition × link-preference order. Entries whose destination
	// joined the tree are compacted out when a step starts. Only
	// switchless fabrics with full membership use it; nil elsewhere.
	cands [][]candidate

	// parents[ti] lists tree ti's nodes usable as BFS parents (added in
	// previous steps) in addition order; dead[ti][p] marks parents find
	// proved can never extend the tree, dropped when a step starts. Used
	// when cands is nil.
	parents [][]topology.NodeID
	dead    [][]bool

	avail  bitset // the step's link pool: set = free
	finder *pathFinder

	c obs.PlanCounters
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
	// order.
	roots := make([]topology.NodeID, 0, n)
	for v := 0; v < n; v++ {
		if members == nil || members[v] {
			roots = append(roots, topology.NodeID(v))
		}
	}
	k := len(roots)
	if k < 2 {
		return nil, fmt.Errorf("multitree: need at least 2 nodes, have %d", k)
	}
	g := &growth{topo: topo, opts: opts, span: k}
	g.trees = make([]*collective.Tree, k)
	g.inTree = make([][]bool, k)
	g.attached = make([]int, k)
	g.pending = make([][]topology.NodeID, k)
	g.next = make([]int, k)
	// Without switches or a member filter no end node relays, so every
	// search is one hop from a tree node: the candidate-link scan applies.
	scan := members == nil && topo.Switches() == 0
	if scan {
		g.cands = make([][]candidate, k)
	} else {
		g.parents = make([][]topology.NodeID, k)
		g.dead = make([][]bool, k)
	}
	for i, root := range roots {
		g.trees[i] = collective.NewTree(i, root, n)
		g.trees[i].Members = members
		g.inTree[i] = make([]bool, n)
		g.inTree[i][root] = true
		g.attached[i] = 1
		g.pending[i] = []topology.NodeID{root}
		if !scan {
			g.dead[i] = make([]bool, n)
		}
	}
	g.avail = newBitset(len(topo.Links()))
	g.finder = newPathFinder(topo)
	g.finder.members = members
	g.finder.shortestFirst = opts.ShortestPathFirst
	return g, nil
}

// appendCands appends v's out-links that lead out of tree ti to list, in
// the search's link-preference order.
func (g *growth) appendCands(list []candidate, ti int, v topology.NodeID) []candidate {
	for _, id := range g.topo.Out(int(v)) {
		if w := g.topo.Link(id).Dst; !g.inTree[ti][w] {
			list = append(list, candidate{link: int32(id), dst: int32(w)})
		}
	}
	return list
}

func (g *growth) run() ([]*collective.Tree, obs.PlanCounters, error) {
	o := g.opts.Observer
	// Every tree must attach all other nodes: the unit of progress.
	totalAttach := int64(g.span) * int64(g.span-1)
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
		for ti := range g.trees {
			g.startStep(ti)
		}
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
	}
}

// startStep readies tree ti's search state for a new step: nodes added
// in the previous step (the root, before the first) become eligible
// parents, proven-futile entries leave the lists, and the cursor
// restarts.
func (g *growth) startStep(ti int) {
	g.next[ti] = 0
	if g.attached[ti] == g.span {
		return
	}
	if g.cands != nil {
		kept := g.cands[ti][:0]
		for _, c := range g.cands[ti] {
			if !g.inTree[ti][c.dst] {
				kept = append(kept, c)
			}
		}
		for _, v := range g.pending[ti] {
			kept = g.appendCands(kept, ti, v)
		}
		g.cands[ti] = kept
	} else {
		kept := g.parents[ti][:0]
		for _, p := range g.parents[ti] {
			if !g.dead[ti][p] {
				kept = append(kept, p)
			}
		}
		g.parents[ti] = append(kept, g.pending[ti]...)
	}
	g.pending[ti] = g.pending[ti][:0]
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
		if u := firstUnreachable(g.topo, tr.Members, root); u >= 0 {
			return fmt.Errorf("multitree: root %d cannot reach node %d on %s: topology is disconnected", root, u, g.topo.Name())
		}
		break // this root reaches everything; no cheap witness, report generically
	}
	return fmt.Errorf("multitree: no progress at step %d on %s (disconnected graph?)", t, g.topo.Name())
}

// round gives every unfinished, unstalled tree one turn in ascending
// root order, committing each result before the next tree searches.
func (g *growth) round(t int32) int {
	added := 0
	for ti := range g.trees {
		if g.attached[ti] == g.span || g.next[ti] < 0 {
			continue
		}
		var child, parent topology.NodeID
		var path []topology.LinkID
		if g.cands != nil {
			child, parent, path = g.finder.scan(g.cands[ti], g.inTree[ti], g.avail, &g.next[ti])
		} else {
			child, parent, path = g.finder.find(g.parents[ti], g.inTree[ti], g.avail, g.dead[ti], &g.next[ti])
		}
		if child < 0 {
			g.next[ti] = -1
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

func complete(attached []int, span int) bool {
	for _, m := range attached {
		if m != span {
			return false
		}
	}
	return true
}

// firstUnreachable returns the lowest-numbered node (member, when
// members is set) src cannot reach over the full (unallocated) topology
// graph, or -1 when every such node is reachable.
func firstUnreachable(topo *topology.Topology, members []bool, src int) topology.NodeID {
	dist := make([]int32, topo.Vertices())
	topo.HopDistances(src, dist, nil)
	for d := 0; d < topo.Nodes(); d++ {
		if dist[d] < 0 && (members == nil || members[d]) {
			return topology.NodeID(d)
		}
	}
	return -1
}
