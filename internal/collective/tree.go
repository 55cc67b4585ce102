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

// treeLowerPlan is one tree's slot assignment in the schedule's
// transfer array and arenas, fixed by the sequential sizing pass so the
// parallel fill pass writes disjoint regions.
type treeLowerPlan struct {
	height   int // max AGStep
	edges    int // member non-root nodes; the tree emits 2*edges transfers
	rootKids int // children attached directly to the root
	hops     int // pinned path hops over the tree's edges
	xferOff  int // first transfer index in Schedule.Transfers
	dOff     int // first slot in the dependency arena
	pOff     int // first slot in the path arena
}

// depSlots is the tree's exact dependency count. A reduce waits on the
// sender's children, one slot per edge not ending at the root; a gather
// waits on the gather into its parent plus the child's own reduce, or
// off the root on the root's whole fan-in plus that reduce.
func (pl *treeLowerPlan) depSlots() int {
	inner := pl.edges - pl.rootKids
	return inner + 2*inner + pl.rootKids*(pl.rootKids+1)
}

// lowerScratch is one worker's reusable per-tree working state; all
// slices are indexed by node id and grown to the largest tree seen.
type lowerScratch struct {
	cnt        []int32 // children per node
	rPos       []int   // node's reduce-dep region in the schedule's arena
	rFill      []int32 // filled entries in that region
	reduceFrom []TransferID
	gatherInto []TransferID
	rootIn     []TransferID      // the root's reduce fan-in
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
		sc.rootIn = make([]TransferID, n)
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

	// Sizing pass: validate each tree and count its edges, root children
	// and pinned path hops, which fix its transfer and arena extents.
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
			pl.hops += len(tr.Path[node])
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, counters, err
		}
	}

	// Sequential merge plan: prefix sums assign every tree its transfer-id
	// range and arena regions; tot (the global schedule depth) comes from
	// the same pass. Each pinned edge path appears twice, reversed for the
	// reduce and as is for the gather.
	tot, nXfer, nDep, nPath := 0, 0, 0, 0
	for i := range plans {
		pl := &plans[i]
		pl.xferOff, pl.dOff, pl.pOff = nXfer, nDep, nPath
		nXfer += 2 * pl.edges
		nDep += pl.depSlots()
		nPath += 2 * pl.hops
		if pl.height > tot {
			tot = pl.height
		}
	}
	if nXfer > maxArena || nDep > maxArena || nPath > maxArena {
		return nil, counters, fmt.Errorf("collective: %d transfers, %d deps and %d path hops exceed the %d-entry arenas",
			nXfer, nDep, nPath, maxArena)
	}
	s.Transfers = make([]Transfer, nXfer)
	s.depOff = make([]int32, nXfer+1)
	s.pathOff = make([]int32, nXfer+1)
	s.deps = make([]TransferID, nDep)
	s.paths = make([]topology.LinkID, nPath)

	// Fill pass: each worker lowers whole trees into their regions.
	var done atomic.Int64
	scratches := make([]lowerScratch, max(workers, 1))
	runTreeTasks(workers, k, func(w, i int) {
		pl := &plans[i]
		lowerTree(topo, trees[i], pl, tot, s, &scratches[w])
		if o != nil {
			o.PlanProgress(obs.PhaseLowering, done.Add(int64(2*pl.edges)), int64(nXfer))
		}
	})
	counters.Transfers = int64(nXfer)
	counters.DepEdges = int64(nDep)
	counters.PathHops = int64(nPath)
	s.Steps = 2 * tot
	return s, counters, nil
}

// lowerTree emits one tree's transfers, in transfer order, into its
// reserved regions of s's transfer array and arenas. Reduce transfers go
// deepest level first so dependencies reference already-emitted
// transfers; gather transfers go shallowest first; within a level,
// children ascend by id — the exact order the append-based lowering
// produced, so transfer ids and bytes are unchanged.
func lowerTree(topo *topology.Topology, tr *Tree, pl *treeLowerPlan, tot int, s *Schedule, sc *lowerScratch) {
	n := len(tr.Parent)
	sc.grow(n, pl.height)
	so := sc.stepOff[:pl.height+2]
	for i := range so {
		so[i] = 0
	}
	for node := 0; node < n; node++ {
		sc.cnt[node] = 0
		sc.rFill[node] = 0
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

	// Each sender's reduce-dep region, in emission order: the reduce of c
	// waits on the reduces from c's children, which fill the region as
	// they are emitted. A child attaches strictly later than its
	// (non-root) parent, so the region is complete when c's turn comes.
	off := pl.dOff
	for st := pl.height; st >= 1; st-- {
		for _, c := range sc.kids[so[st-1]:so[st]] {
			sc.rPos[c] = off
			off += int(sc.cnt[c])
		}
	}

	seq := pl.xferOff
	dcur, pcur := pl.dOff, pl.pOff
	emit := func(t Transfer) TransferID {
		s.Transfers[seq] = t
		s.depOff[seq+1] = int32(dcur)
		s.pathOff[seq+1] = int32(pcur)
		seq++
		return TransferID(seq - 1)
	}
	flow := int32(tr.Flow)
	for st := pl.height; st >= 1; st-- {
		for _, c := range sc.kids[so[st-1]:so[st]] {
			p := tr.Parent[c]
			tp := tr.Path[c]
			for i, id := range tp {
				s.paths[pcur+len(tp)-1-i] = topo.ReverseLink(topo.Link(id))
			}
			pcur += len(tp)
			dcur = sc.rPos[c] + int(sc.cnt[c])
			id := emit(Transfer{Src: c, Dst: p, Op: Reduce, Flow: flow, Step: int32(tot - st + 1)})
			sc.reduceFrom[c] = id
			if p == tr.Root {
				sc.rootIn[sc.rFill[p]] = id
			} else {
				s.deps[sc.rPos[p]+int(sc.rFill[p])] = id
			}
			sc.rFill[p]++
		}
	}

	// Gather phase, shallowest level first. Deps: the gather received from
	// the parent (at the root: the completed reduction fan-in), then the
	// child's own reduce send — a node cannot forward downstream before it
	// has stopped needing its buffer for the reduce it sent upstream; the
	// gather overwrites the same segment.
	rootIn := sc.rootIn[:sc.rFill[tr.Root]]
	for st := 1; st <= pl.height; st++ {
		for _, c := range sc.kids[so[st-1]:so[st]] {
			p := tr.Parent[c]
			if p == tr.Root {
				dcur += copy(s.deps[dcur:], rootIn)
			} else {
				s.deps[dcur] = sc.gatherInto[p]
				dcur++
			}
			s.deps[dcur] = sc.reduceFrom[c]
			dcur++
			pcur += copy(s.paths[pcur:], tr.Path[c])
			sc.gatherInto[c] = emit(Transfer{Src: p, Dst: c, Op: Gather, Flow: flow, Step: int32(tot + st)})
		}
	}
	if dcur != pl.dOff+pl.depSlots() || pcur != pl.pOff+2*pl.hops {
		panic(fmt.Sprintf("collective: tree %d lowered %d deps/%d hops into %d/%d reserved slots",
			tr.Flow, dcur-pl.dOff, pcur-pl.pOff, pl.depSlots(), 2*pl.hops))
	}
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
