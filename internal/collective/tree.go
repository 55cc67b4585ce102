package collective

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"multitree/internal/obs"
	"multitree/internal/topology"
)

// Tree is a spanning reduction/broadcast tree for one flow (one gradient
// chunk), the structure Algorithm 1 of the paper constructs. The same tree
// serves both phases: reduce-scatter runs it leaf-to-root, all-gather
// root-to-leaf, exactly as lines 16-18 of Algorithm 1 derive one from the
// other.
type Tree struct {
	Flow int
	Root topology.NodeID

	// Parent[n] is node n's parent, -1 for the root.
	Parent []topology.NodeID

	// AGStep[n] is the 1-based all-gather time step at which the edge
	// Parent[n] -> n communicates (the construction time step of line 13);
	// 0 for the root.
	AGStep []int

	// Path[n] optionally pins the allocated link path Parent[n] -> n for
	// indirect networks (§III-C3); nil entries fall back to routing.
	Path [][]topology.LinkID

	// Members, when non-nil, restricts the tree to a subset of nodes —
	// the hybrid-parallel case of §VII-B where "MultiTree runs for the
	// nodes that involve all-reduce communication". Non-member nodes may
	// still appear inside Path entries as pass-through routers, but they
	// neither send nor receive gradient chunks.
	Members []bool
}

// NewTree allocates a tree over n nodes rooted at root.
func NewTree(flow int, root topology.NodeID, n int) *Tree {
	t := &Tree{
		Flow:   flow,
		Root:   root,
		Parent: make([]topology.NodeID, n),
		AGStep: make([]int, n),
		Path:   make([][]topology.LinkID, n),
	}
	for i := range t.Parent {
		t.Parent[i] = -1
	}
	return t
}

// SetEdge records that node child was connected to parent at all-gather
// step step.
func (t *Tree) SetEdge(parent, child topology.NodeID, step int) {
	t.Parent[child] = parent
	t.AGStep[child] = step
}

// Children returns, for each node, its children sorted by attach step then
// id — the order the schedule table lists them.
func (t *Tree) Children() [][]topology.NodeID {
	ch := make([][]topology.NodeID, len(t.Parent))
	for n, p := range t.Parent {
		if topology.NodeID(n) == t.Root || p < 0 {
			continue
		}
		ch[p] = append(ch[p], topology.NodeID(n))
	}
	for p := range ch {
		kids := ch[p]
		sort.Slice(kids, func(i, j int) bool {
			if t.AGStep[kids[i]] != t.AGStep[kids[j]] {
				return t.AGStep[kids[i]] < t.AGStep[kids[j]]
			}
			return kids[i] < kids[j]
		})
	}
	return ch
}

// Height returns the maximum AGStep, i.e. the tree's scheduled depth.
func (t *Tree) Height() int {
	h := 0
	for _, s := range t.AGStep {
		if s > h {
			h = s
		}
	}
	return h
}

// Validate checks that the tree spans all nodes, is acyclic, and that each
// child attaches at a strictly later step than its parent. The check is a
// single O(n) pass: every parent pointer must go to a member whose attach
// step is strictly smaller, so any chain of parents strictly decreases the
// step and must terminate at the root — a cycle would need some edge whose
// step does not decrease, and that edge fails the per-node check directly.
func (t *Tree) Validate() error {
	n := len(t.Parent)
	for node := 0; node < n; node++ {
		id := topology.NodeID(node)
		if t.Members != nil && !t.Members[node] {
			if t.Parent[node] != -1 {
				return fmt.Errorf("tree %d: non-member %d has parent %d", t.Flow, id, t.Parent[node])
			}
			continue
		}
		if id == t.Root {
			if t.Parent[node] != -1 {
				return fmt.Errorf("tree %d: root %d has parent %d", t.Flow, id, t.Parent[node])
			}
			continue
		}
		if t.Parent[node] < 0 {
			return fmt.Errorf("tree %d: node %d not connected", t.Flow, id)
		}
		if t.AGStep[node] < 1 {
			return fmt.Errorf("tree %d: node %d has step %d", t.Flow, id, t.AGStep[node])
		}
		p := t.Parent[node]
		if int(p) >= n {
			return fmt.Errorf("tree %d: node %d has parent %d outside the tree", t.Flow, id, p)
		}
		if t.Members != nil && !t.Members[p] {
			return fmt.Errorf("tree %d: node %d has non-member parent %d", t.Flow, id, p)
		}
		if p != t.Root && t.AGStep[p] >= t.AGStep[node] {
			return fmt.Errorf("tree %d: node %d (step %d) attaches no later than parent %d (step %d)",
				t.Flow, id, t.AGStep[node], p, t.AGStep[p])
		}
	}
	return nil
}

// String renders the tree per level for diagnostics and the Fig. 3
// walkthrough.
func (t *Tree) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tree %d root n%d:", t.Flow, t.Root)
	byStep := map[int][]string{}
	maxStep := 0
	for n, p := range t.Parent {
		if p < 0 {
			continue
		}
		s := t.AGStep[n]
		byStep[s] = append(byStep[s], fmt.Sprintf("n%d->n%d", p, n))
		if s > maxStep {
			maxStep = s
		}
	}
	for s := 1; s <= maxStep; s++ {
		edges := byStep[s]
		sort.Strings(edges)
		fmt.Fprintf(&b, " [t%d: %s]", s, strings.Join(edges, " "))
	}
	return b.String()
}

// TreesToSchedule lowers a set of spanning trees (one per flow) into a
// Transfer DAG. Reduce-scatter transfers occupy steps 1..tot and run each
// tree leaf-to-root; all-gather transfers occupy steps tot+1..2*tot and run
// root-to-leaf, with the step reversal of Algorithm 1 lines 16-18:
//
//	reduce step  = tot - AGStep + 1
//	gather step  = tot + AGStep
//
// Dependencies encode the schedule-table semantics of §IV-A: a node's
// Reduce to its parent waits for the Reduces from all its children, and a
// Gather to a child waits for the Gather received from the parent (or, at
// the root, for the completed reduction).
func TreesToSchedule(alg string, topo *topology.Topology, elems int, trees []*Tree) (*Schedule, error) {
	return TreesToScheduleParallel(alg, topo, elems, trees, 1, nil)
}

// TreesToScheduleObserved is TreesToSchedule bracketed as the lowering
// phase of a PlanObserver: phase boundaries plus the emitted transfer,
// dependency-edge and path-hop counts. A nil observer makes it exactly
// TreesToSchedule.
func TreesToScheduleObserved(alg string, topo *topology.Topology, elems int, trees []*Tree, o obs.PlanObserver) (*Schedule, error) {
	return TreesToScheduleParallel(alg, topo, elems, trees, 1, o)
}

// TreesToScheduleParallel lowers independent trees on up to workers
// goroutines. Every tree's transfers occupy a precomputed contiguous id
// region, so the emitted schedule — ids, dependency order, pinned paths,
// exported bytes — is identical at any worker count; workers only change
// who fills which region.
func TreesToScheduleParallel(alg string, topo *topology.Topology, elems int, trees []*Tree, workers int, o obs.PlanObserver) (*Schedule, error) {
	if o == nil {
		s, _, err := treesToSchedule(alg, topo, elems, trees, workers, nil)
		return s, err
	}
	o.PhaseStart(obs.PhaseLowering)
	s, c, err := treesToSchedule(alg, topo, elems, trees, workers, o)
	o.PhaseEnd(obs.PhaseLowering, c)
	return s, err
}

// treeLowerPlan is one tree's slot assignment in the shared output
// arrays, fixed by the sequential sizing pass so the parallel fill pass
// writes disjoint regions.
type treeLowerPlan struct {
	height   int // max AGStep
	edges    int // member non-root nodes; the tree emits 2*edges transfers
	rootKids int // children attached directly to the root
	xferOff  int // first transfer index in Schedule.Transfers
	rOff     int // first slot in the reduce-dependency arena
	gOff     int // first slot in the gather-dependency arena
	gLen     int // gather-dependency slots reserved (upper bound)
	pOff     int // first slot in the reversed-path arena
	pLen     int // reversed-path hops reserved
	deps     int64
	hops     int64
}

// lowerScratch is one worker's reusable per-tree working state; all
// slices are indexed by node id and grown to the largest tree seen.
type lowerScratch struct {
	cnt        []int32 // children per node
	rPos       []int   // node's region offset in the reduce-dep arena
	rFill      []int32 // filled entries in that region
	reduceFrom []TransferID
	gatherInto []TransferID
	stepOff    []int             // counting-sort bucket bounds by AGStep
	kids       []topology.NodeID // children in (step asc, id asc) order
}

func (sc *lowerScratch) grow(n, height int) {
	if len(sc.cnt) < n {
		sc.cnt = make([]int32, n)
		sc.rPos = make([]int, n)
		sc.rFill = make([]int32, n)
		sc.reduceFrom = make([]TransferID, n)
		sc.gatherInto = make([]TransferID, n)
		sc.kids = make([]topology.NodeID, n)
	}
	if len(sc.stepOff) < height+2 {
		sc.stepOff = make([]int, height+2)
	}
}

func treesToSchedule(alg string, topo *topology.Topology, elems int, trees []*Tree, workers int, o obs.PlanObserver) (*Schedule, obs.PlanCounters, error) {
	s := NewSchedule(alg, topo, elems, len(trees))
	var counters obs.PlanCounters
	k := len(trees)
	plans := make([]treeLowerPlan, k)
	errs := make([]error, k)

	// Sizing pass: validate each tree and count its transfers, dependency
	// slots and reversed-path hops. Per tree: the reduce side emits one
	// transfer per edge whose deps exactly fill the parent's child-count
	// region; the gather side needs at most 2 slots per edge, except edges
	// off the root, which copy the root's full reduce fan-in plus one.
	runTreeTasks(workers, k, func(_, i int) {
		tr := trees[i]
		if err := tr.Validate(); err != nil {
			errs[i] = err
			return
		}
		pl := &plans[i]
		for node := 0; node < len(tr.Parent); node++ {
			if tr.Members != nil && !tr.Members[node] {
				continue
			}
			if topology.NodeID(node) == tr.Root {
				continue
			}
			pl.edges++
			if tr.Parent[node] == tr.Root {
				pl.rootKids++
			}
			if st := tr.AGStep[node]; st > pl.height {
				pl.height = st
			}
			pl.pLen += len(tr.Path[node])
		}
		pl.gLen = 2*(pl.edges-pl.rootKids) + pl.rootKids*(pl.rootKids+1)
	})
	for _, err := range errs {
		if err != nil {
			return nil, counters, err
		}
	}

	// Sequential merge plan: prefix sums assign every tree its transfer-id
	// range and arena regions; tot (the global schedule depth) comes from
	// the same pass.
	tot, nXfer, nRDep, nGDep, nPath := 0, 0, 0, 0, 0
	for i := range plans {
		pl := &plans[i]
		pl.xferOff, pl.rOff, pl.gOff, pl.pOff = nXfer, nRDep, nGDep, nPath
		nXfer += 2 * pl.edges
		nRDep += pl.edges
		nGDep += pl.gLen
		nPath += pl.pLen
		if pl.height > tot {
			tot = pl.height
		}
	}
	s.Transfers = make([]Transfer, nXfer)
	reduceDeps := make([]TransferID, nRDep)
	gatherDeps := make([]TransferID, nGDep)
	pathArena := make([]topology.LinkID, nPath)

	// Fill pass: each worker lowers whole trees into their regions.
	var done atomic.Int64
	scratches := make([]lowerScratch, max(workers, 1))
	runTreeTasks(workers, k, func(w, i int) {
		pl := &plans[i]
		lowerTree(topo, trees[i], pl, tot, s.Transfers, reduceDeps, gatherDeps, pathArena, &scratches[w])
		if o != nil {
			o.PlanProgress(obs.PhaseLowering, done.Add(int64(2*pl.edges)), int64(nXfer))
		}
	})
	for i := range plans {
		counters.DepEdges += plans[i].deps
		counters.PathHops += plans[i].hops
	}
	counters.Transfers = int64(nXfer)
	s.Steps = 2 * tot
	return s, counters, nil
}

// lowerTree emits one tree's transfers into its reserved regions. Reduce
// transfers go deepest level first so dependencies reference
// already-emitted transfers; gather transfers go shallowest first; within
// a level, children ascend by id — the exact order the append-based
// lowering produced, so transfer ids and bytes are unchanged.
func lowerTree(topo *topology.Topology, tr *Tree, pl *treeLowerPlan, tot int,
	xfers []Transfer, reduceDeps, gatherDeps []TransferID, pathArena []topology.LinkID, sc *lowerScratch) {
	n := len(tr.Parent)
	sc.grow(n, pl.height)
	so := sc.stepOff[:pl.height+2]
	for i := range so {
		so[i] = 0
	}
	for node := 0; node < n; node++ {
		sc.cnt[node] = 0
		sc.gatherInto[node] = -1
	}

	// Counting sort of edges by attach step: after the placement loop,
	// bucket st spans kids[so[st-1]:so[st]] in ascending child id.
	for node := 0; node < n; node++ {
		if tr.Members != nil && !tr.Members[node] {
			continue
		}
		if topology.NodeID(node) == tr.Root {
			continue
		}
		so[tr.AGStep[node]+1]++
		sc.cnt[tr.Parent[node]]++
	}
	for st := 1; st < len(so); st++ {
		so[st] += so[st-1]
	}
	for node := 0; node < n; node++ {
		if tr.Members != nil && !tr.Members[node] {
			continue
		}
		if topology.NodeID(node) == tr.Root {
			continue
		}
		st := tr.AGStep[node]
		sc.kids[so[st]] = topology.NodeID(node)
		so[st]++
	}

	// Each node's reduce fan-in region in the shared arena.
	off := pl.rOff
	for node := 0; node < n; node++ {
		sc.rPos[node] = off
		off += int(sc.cnt[node])
		sc.rFill[node] = 0
	}

	// Reduce phase, deepest level first. A child attaches strictly later
	// than its (non-root) parent, so by the time an edge is emitted the
	// child's fan-in region is complete and can be aliased as Deps.
	seq := pl.xferOff
	pcur := pl.pOff
	var depCount, hopCount int64
	for st := pl.height; st >= 1; st-- {
		for _, c := range sc.kids[so[st-1]:so[st]] {
			p := tr.Parent[c]
			var deps []TransferID
			if f := int(sc.rFill[c]); f > 0 {
				deps = reduceDeps[sc.rPos[c] : sc.rPos[c]+f : sc.rPos[c]+f]
			}
			var path []topology.LinkID
			if tp := tr.Path[c]; tp != nil {
				path = pathArena[pcur : pcur+len(tp) : pcur+len(tp)]
				for i, id := range tp {
					path[len(tp)-1-i] = topo.ReverseLink(topo.Link(id))
				}
				pcur += len(tp)
			}
			id := TransferID(seq)
			xfers[seq] = Transfer{
				Src: c, Dst: p, Op: Reduce, Flow: tr.Flow,
				Step: tot - st + 1,
				Deps: deps,
				Path: path,
			}
			seq++
			sc.reduceFrom[c] = id
			reduceDeps[sc.rPos[p]+int(sc.rFill[p])] = id
			sc.rFill[p]++
			depCount += int64(len(deps))
			hopCount += int64(len(path))
		}
	}

	// Gather phase, shallowest level first. Deps: the gather received from
	// the parent (at the root: the completed reduction fan-in), then the
	// child's own reduce send — a node cannot forward downstream before it
	// has stopped needing its buffer for the reduce it sent upstream; the
	// gather overwrites the same segment.
	gcur := pl.gOff
	for st := 1; st <= pl.height; st++ {
		for _, c := range sc.kids[so[st-1]:so[st]] {
			p := tr.Parent[c]
			start := gcur
			if p == tr.Root {
				root := int(tr.Root)
				gcur += copy(gatherDeps[gcur:], reduceDeps[sc.rPos[root]:sc.rPos[root]+int(sc.rFill[root])])
			} else if g := sc.gatherInto[p]; g >= 0 {
				gatherDeps[gcur] = g
				gcur++
			}
			gatherDeps[gcur] = sc.reduceFrom[c]
			gcur++
			deps := gatherDeps[start:gcur:gcur]
			id := TransferID(seq)
			xfers[seq] = Transfer{
				Src: p, Dst: c, Op: Gather, Flow: tr.Flow,
				Step: tot + st,
				Deps: deps,
				Path: tr.Path[c],
			}
			seq++
			sc.gatherInto[c] = id
			depCount += int64(len(deps))
			hopCount += int64(len(tr.Path[c]))
		}
	}
	pl.deps, pl.hops = depCount, hopCount
}

// runTreeTasks runs fn(worker, i) for i in [0, k), fanning out over up to
// workers goroutines pulling indices from a shared cursor. fn instances
// must write disjoint state; worker indexes per-goroutine scratch.
func runTreeTasks(workers, k int, fn func(worker, i int)) {
	if workers > k {
		workers = k
	}
	if workers <= 1 {
		for i := 0; i < k; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= k {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}
