package core

import (
	"fmt"
	"sync"
	"sync/atomic"

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
// workers parallelize the eccentricity pass below and the lowering that
// follows growth.

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
		g.ecc = eccentricities(topo, members, opts.Workers)
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
// estimates the final height of the tree rooted there. Direct symmetric
// fabrics take an incremental path that updates distances between
// adjacent sources; otherwise the per-source searches are independent,
// so they reuse one scratch set per worker and fan out across workers
// when asked.
func eccentricities(topo *topology.Topology, members []bool, workers int) []int {
	if members == nil {
		if out := eccentricitiesIncremental(topo); out != nil {
			return out
		}
	}
	n := topo.Nodes()
	out := make([]int, n)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		s := newEccScratch(topo, members)
		for src := 0; src < n; src++ {
			out[src] = s.from(src)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := newEccScratch(topo, members)
			for {
				src := int(next.Add(1)) - 1
				if src >= n {
					return
				}
				out[src] = s.from(src)
			}
		}()
	}
	wg.Wait()
	return out
}

// eccScratch is one worker's reusable BFS state for eccentricities.
type eccScratch struct {
	topo           *topology.Topology
	members        []bool // nodes whose distance counts; nil: every node
	dist           []int32
	frontier, next []int
}

func newEccScratch(topo *topology.Topology, members []bool) *eccScratch {
	return &eccScratch{
		topo:     topo,
		members:  members,
		dist:     make([]int32, topo.Vertices()),
		frontier: make([]int, 0, topo.Vertices()),
		next:     make([]int, 0, topo.Vertices()),
	}
}

func (s *eccScratch) from(src int) int {
	t := s.topo
	dist := s.dist
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	cur := s.frontier[:0]
	cur = append(cur, src)
	nxt := s.next[:0]
	for len(cur) > 0 {
		nxt = nxt[:0]
		for _, v := range cur {
			// In switch-based networks only switches forward, so a path
			// cannot relay through another end node; in direct networks
			// every node's integrated router forwards.
			if t.Class() == topology.Indirect && t.IsNode(v) && v != src {
				continue
			}
			for _, l := range t.Out(v) {
				w := t.Link(l).Dst
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					nxt = append(nxt, w)
				}
			}
		}
		cur, nxt = nxt, cur
	}
	s.frontier, s.next = cur, nxt // keep whichever capacity each grew
	// Node-distance in construction steps: switch hops are internal to a
	// single scheduled edge, so eccentricity counts destination nodes
	// only. A conservative proxy is the max node distance in links, which
	// orders roots correctly on grids and trees alike.
	ecc := 0
	for d := 0; d < t.Nodes(); d++ {
		if s.members != nil && !s.members[d] {
			continue
		}
		if dist[d] < 0 {
			return EccUnreachable
		}
		if int(dist[d]) > ecc {
			ecc = int(dist[d])
		}
	}
	return ecc
}

// firstUnreachable runs the eccentricity BFS from src and returns the
// lowest-numbered node (member, when members is set) it cannot reach,
// or -1 when every such node is reachable.
func (s *eccScratch) firstUnreachable(src int) topology.NodeID {
	s.from(src)
	for d := 0; d < s.topo.Nodes(); d++ {
		if s.dist[d] < 0 && (s.members == nil || s.members[d]) {
			return topology.NodeID(d)
		}
	}
	return -1
}

// symmetricLinks reports whether every directed link has a reverse
// companion — the precondition for the incremental eccentricity pass's
// triangle-inequality seeding.
func symmetricLinks(topo *topology.Topology) bool {
	links := topo.Links()
	seen := make(map[uint64]bool, len(links))
	for _, l := range links {
		seen[uint64(uint32(l.Src))<<32|uint64(uint32(l.Dst))] = true
	}
	for _, l := range links {
		if !seen[uint64(uint32(l.Dst))<<32|uint64(uint32(l.Src))] {
			return false
		}
	}
	return true
}

// eccentricitiesIncremental computes every node's eccentricity by
// updating distances between adjacent sources instead of re-running a
// full breadth-first search per source. On direct fabrics with
// symmetric links the hop metric obeys the triangle inequality, so for
// adjacent vertices u, v the exact distances from u bound those from v:
// d(v,w) <= d(u,w) + 1. Seeding v's array with du+1 and relaxing only
// the strict improvements touches just the region whose distance
// actually changes — about half the fabric per hop on grids, against a
// full sweep for a from-scratch BFS. Sources are visited by walking a
// BFS spanning tree of the fabric depth-first with one distance array
// per tree level, so every seed comes from an exact, adjacent source.
//
// The relaxation is exact: along any shortest path from v, each vertex
// either gets improved (and then relaxes its successor) or its seeded
// value already equals the true distance — and then the successor's
// seed is forced to the true distance too, by the same two inequalities
// that justified the seed.
//
// Returns nil when the preconditions fail (indirect class, asymmetric
// links, disconnected graph); the caller falls back to per-source BFS,
// which also produces the EccUnreachable sentinels.
func eccentricitiesIncremental(topo *topology.Topology) []int {
	if topo.Class() != topology.Direct || !symmetricLinks(topo) {
		return nil
	}
	nv := topo.Vertices()
	n := topo.Nodes()
	if nv == 0 || n == 0 {
		return nil
	}
	// BFS spanning tree of the fabric from vertex 0.
	parent := make([]int32, nv)
	for i := range parent {
		parent[i] = -1
	}
	parent[0] = 0
	bfsOrder := make([]int32, 0, nv)
	bfsOrder = append(bfsOrder, 0)
	for qi := 0; qi < len(bfsOrder); qi++ {
		v := int(bfsOrder[qi])
		for _, l := range topo.Out(v) {
			w := topo.Link(l).Dst
			if parent[w] < 0 {
				parent[w] = int32(v)
				bfsOrder = append(bfsOrder, int32(w))
			}
		}
	}
	if len(bfsOrder) != nv {
		return nil // disconnected
	}
	// Children of each vertex in the spanning tree, as a CSR layout.
	start := make([]int32, nv+1)
	for _, v := range bfsOrder[1:] {
		start[parent[v]+1]++
	}
	for i := 0; i < nv; i++ {
		start[i+1] += start[i]
	}
	kids := make([]int32, nv-1)
	fill := make([]int32, nv)
	copy(fill, start[:nv])
	for _, v := range bfsOrder[1:] {
		p := parent[v]
		kids[fill[p]] = v
		fill[p]++
	}

	out := make([]int, n)
	eccOf := func(d []int32) int {
		e := 0
		for i := 0; i < n; i++ {
			if int(d[i]) > e {
				e = int(d[i])
			}
		}
		return e
	}
	// Exact distances from the tree root, by full BFS.
	levels := [][]int32{make([]int32, nv)}
	d0 := levels[0]
	for i := range d0 {
		d0[i] = -1
	}
	d0[0] = 0
	q := make([]int32, 0, nv)
	q = append(q, 0)
	for qi := 0; qi < len(q); qi++ {
		v := int(q[qi])
		for _, l := range topo.Out(v) {
			w := topo.Link(l).Dst
			if d0[w] < 0 {
				d0[w] = d0[v] + 1
				q = append(q, int32(w))
			}
		}
	}
	out[0] = eccOf(d0)

	// Depth-first walk of the spanning tree. Each descent u -> v seeds
	// dv from du and relaxes; each level's array is reused across the
	// subtrees hanging at that depth, so memory is O(tree height) arrays.
	type frame struct {
		v    int32
		next int32 // cursor into kids[start[v]:start[v+1]]
	}
	stack := make([]frame, 1, 64)
	stack[0] = frame{v: 0, next: start[0]}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next >= start[f.v+1] {
			stack = stack[:len(stack)-1]
			continue
		}
		child := int(kids[f.next])
		f.next++
		depth := len(stack)
		if depth >= len(levels) {
			levels = append(levels, make([]int32, nv))
		}
		du, dv := levels[depth-1], levels[depth]
		for i, d := range du {
			dv[i] = d + 1
		}
		dv[child] = 0
		q = q[:0]
		q = append(q, int32(child))
		for qi := 0; qi < len(q); qi++ {
			x := int(q[qi])
			nd := dv[x] + 1
			for _, l := range topo.Out(x) {
				w := topo.Link(l).Dst
				if nd < dv[w] {
					dv[w] = nd
					q = append(q, int32(w))
				}
			}
		}
		if child < n {
			out[child] = eccOf(dv)
		}
		stack = append(stack, frame{v: int32(child), next: start[child]})
	}
	return out
}
