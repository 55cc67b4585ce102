package core

import (
	"multitree/internal/obs"
	"multitree/internal/topology"
)

// candidate is one entry of a tree's scan list: an out-link of a tree
// node and the node it leads to.
type candidate struct {
	link int32
	dst  int32
}

// pathFinder performs the child search of Algorithm 1 line 10 (direct
// networks: a free one-hop edge) and its indirect-network extension
// §III-C3 (a free node-switch-...-node path). Both searches walk a
// per-tree list from a per-tree cursor that growth resets every step;
// entries before the cursor are proven unable to extend the tree until
// the step ends.
type pathFinder struct {
	topo *topology.Topology

	// members, when non-nil, restricts candidate children to member nodes
	// (subset all-reduce, §VII-B); in direct networks non-member nodes'
	// routers still forward, so the search expands through them.
	members []bool

	// shortestFirst selects the Options.ShortestPathFirst allocation.
	shortestFirst bool

	// Search counters, maintained unconditionally (integer adds): turns
	// of Algorithm 1 line 10, the turns that found no free path, links
	// (or scan candidates) examined, and those skipped because another
	// tree held the link this step. growTrees folds them into the phase
	// counters at the end.
	searches      int64
	searchMisses  int64
	linksScanned  int64
	linkConflicts int64

	// BFS scratch, reused across calls. A vertex counts as visited when
	// its stamp equals the current epoch, so each search starts without
	// clearing the arrays.
	visitedAt []uint64
	epoch     uint64
	via       []topology.LinkID
	queue     []int
	rev       []topology.LinkID
}

func newPathFinder(topo *topology.Topology) *pathFinder {
	return &pathFinder{
		topo:      topo,
		visitedAt: make([]uint64, topo.Vertices()),
		via:       make([]topology.LinkID, topo.Vertices()),
	}
}

// fold accumulates the search counters into c.
func (f *pathFinder) fold(c *obs.PlanCounters) {
	c.Searches += f.searches
	c.SearchMisses += f.searchMisses
	c.LinksScanned += f.linksScanned
	c.LinkConflicts += f.linkConflicts
}

// scan is the search on a switchless fabric with full membership, where
// every child is one out-link of a tree node away and no end node
// relays. cands is the tree's candidate list, in parent-addition ×
// link-preference order, and *next its cursor. Every entry before the
// cursor holds a link claimed this step or a destination already in the
// tree, and both stay true until the step ends, so the first viable
// entry from the cursor on is the one find's parent-by-parent search
// would return. The cursor comes to rest on that entry.
func (f *pathFinder) scan(cands []candidate, inTree []bool, avail bitset, next *int) (topology.NodeID, topology.NodeID, []topology.LinkID) {
	f.searches++
	for i := *next; i < len(cands); i++ {
		c := cands[i]
		f.linksScanned++
		if !avail.test(int(c.link)) {
			f.linkConflicts++
			continue
		}
		if !inTree[c.dst] {
			*next = i
			id := topology.LinkID(c.link)
			return topology.NodeID(c.dst), topology.NodeID(f.topo.Link(id).Src), []topology.LinkID{id}
		}
	}
	f.searchMisses++
	return -1, -1, nil
}

// find searches the tree's parents from the cursor *next on, in their
// order of addition, and returns the first (child, parent, allocated
// path) reachable over free links, or child = -1 when none is. With
// shortestFirst set it instead returns the shortest free path over those
// parents. Within a step the link pool only shrinks and the tree only
// grows, so a parent whose search failed keeps failing until the step
// ends: the cursor moves past each failure that precedes every success
// and rests on the first parent that succeeded. A failure that met no
// occupied link saw the parent's whole reachable neighborhood already in
// the tree, which is permanent; it sets dead[p], and growth drops the
// parent before the next step.
func (f *pathFinder) find(parents []topology.NodeID, inTree []bool, avail bitset, dead []bool, next *int) (topology.NodeID, topology.NodeID, []topology.LinkID) {
	f.searches++
	bestChild := topology.NodeID(-1)
	var bestParent topology.NodeID
	var bestPath []topology.LinkID
	for i := *next; i < len(parents); i++ {
		p := parents[i]
		before := f.linkConflicts
		c, path := f.bfs(int(p), inTree, avail)
		if c < 0 {
			if f.linkConflicts == before {
				dead[p] = true
			}
			if bestChild < 0 {
				*next = i + 1
			}
			continue
		}
		if bestChild < 0 || len(path) < len(bestPath) {
			bestChild, bestParent, bestPath = c, p, path
			if !f.shortestFirst || len(path) <= 1 || (f.topo.Class() == topology.Indirect && len(path) == 2) {
				break // first fit, or cannot do better than a direct / same-switch hop
			}
		}
	}
	if bestChild < 0 {
		f.searchMisses++
	}
	return bestChild, bestParent, bestPath
}

// bfs searches from parent vertex start over available links. Expansion
// passes only through switch vertices (and, in direct networks,
// non-member nodes); the first node vertex found that is not yet in the
// tree is returned together with its link path. Out-links are scanned in
// the topology's preference order, so one-hop children and Y-dimension
// neighbors win ties.
func (f *pathFinder) bfs(start int, inTree []bool, avail bitset) (topology.NodeID, []topology.LinkID) {
	t := f.topo
	all := t.Links() // indexed in place: t.Link copies the whole struct
	f.epoch++
	if f.epoch == 0 { // stamp wraparound: invalidate everything once
		for i := range f.visitedAt {
			f.visitedAt[i] = 0
		}
		f.epoch = 1
	}
	e := f.epoch
	f.visitedAt[start] = e
	f.queue = f.queue[:0]
	f.queue = append(f.queue, start)
	for qi := 0; qi < len(f.queue); qi++ {
		v := f.queue[qi]
		for _, id := range t.Out(v) {
			f.linksScanned++
			if !avail.test(int(id)) {
				f.linkConflicts++
				continue
			}
			w := all[id].Dst
			if f.visitedAt[w] == e {
				continue
			}
			f.visitedAt[w] = e
			f.via[w] = id
			if t.IsNode(w) {
				if f.members != nil && !f.members[w] {
					// Non-member accelerator: not a candidate child, but
					// its integrated router forwards in direct networks.
					if t.Class() == topology.Direct {
						f.queue = append(f.queue, w)
					}
					continue
				}
				if !inTree[w] {
					return topology.NodeID(w), f.pathTo(w, start)
				}
				continue // cannot relay through a participating end node
			}
			f.queue = append(f.queue, w)
		}
	}
	return -1, nil
}

// pathTo reconstructs the link path start -> v from the via array.
func (f *pathFinder) pathTo(v, start int) []topology.LinkID {
	f.rev = f.rev[:0]
	for u := v; u != start; u = f.topo.Link(f.via[u]).Src {
		f.rev = append(f.rev, f.via[u])
	}
	path := make([]topology.LinkID, len(f.rev))
	for i, id := range f.rev {
		path[len(f.rev)-1-i] = id
	}
	return path
}
