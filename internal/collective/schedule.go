// Package collective defines the intermediate representation shared by all
// all-reduce algorithms in this repository: a DAG of point-to-point
// transfers tagged with reduction semantics, the spanning-tree form used by
// tree-based algorithms, and utilities to validate, analyze and execute
// schedules on real data.
//
// Every algorithm (ring, double binary tree, 2D-ring, HDRM and MultiTree)
// lowers to a Schedule. The network simulators in internal/network execute
// Schedules against a topology; the correctness interpreter in this package
// executes them against float32 vectors to prove the all-reduce semantics.
package collective

import (
	"container/heap"
	"fmt"
	"runtime"
	"slices"
	"unsafe"

	"multitree/internal/topology"
)

// idHeap is a min-heap of transfer ids used for deterministic topological
// ordering.
type idHeap []TransferID

func (h idHeap) Len() int           { return len(h) }
func (h idHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h idHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *idHeap) Push(x any)        { *h = append(*h, x.(TransferID)) }
func (h *idHeap) Pop() any {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

// WordSize is the gradient element size in bytes (32-bit precision,
// Table III).
const WordSize = 4

// Op is the operation a transfer performs at its destination, matching the
// schedule-table opcodes of §IV-A.
type Op uint8

const (
	// Reduce adds the carried segment into the destination's buffer
	// (reduce-scatter phase, leaf-to-root).
	Reduce Op = iota
	// Gather overwrites the destination's copy of the segment with the
	// carried, fully reduced value (all-gather phase, root-to-leaf).
	Gather
	// NOP entries exist only in NI schedule tables to hold the lockstep;
	// they never appear as transfers.
	NOP
)

func (o Op) String() string {
	switch o {
	case Reduce:
		return "Reduce"
	case Gather:
		return "Gather"
	case NOP:
		return "NOP"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// TransferID indexes a transfer within a Schedule.
type TransferID int32

// Range is a half-open element interval [Off, Off+Len) of the gradient
// vector.
type Range struct {
	Off, Len int
}

// End returns the exclusive upper bound of the range.
func (r Range) End() int { return r.Off + r.Len }

// Bytes returns the on-wire payload size of the range.
func (r Range) Bytes() int64 { return int64(r.Len) * WordSize }

// Transfer is one point-to-point message in an all-reduce schedule: one
// fixed-size, pointer-free schedule-table entry. Its dependencies (the
// Parent/Children links of the schedule table) and its optional pinned
// link path live in the owning Schedule's flat arenas, read through
// Schedule.Deps and Schedule.Path.
type Transfer struct {
	Src  topology.NodeID
	Dst  topology.NodeID
	Op   Op
	Flow int32 // tree / chunk id (FlowID of the schedule table)
	Step int32 // algorithmic time step, 1-based
}

// Schedule is a complete all-reduce communication plan.
type Schedule struct {
	Algorithm string
	Topo      *topology.Topology

	// Elems is the total gradient length in elements.
	Elems int

	// Flows maps each flow id to the gradient segment it carries.
	Flows []Range

	// Transfers grows only through Add (or a lowering or decoder of this
	// package), which keeps the dependency and path arenas in step.
	Transfers []Transfer

	// Steps is the total number of algorithmic time steps.
	Steps int

	// The dependency and pinned-path arenas in CSR form: transfer i's
	// dependencies are deps[depOff[i]:depOff[i+1]] and its pinned path
	// is paths[pathOff[i]:pathOff[i+1]], an empty range meaning the
	// topology's deterministic route. Both offset arrays hold
	// len(Transfers)+1 entries once the schedule has a transfer.
	depOff, pathOff []int32
	deps            []TransferID
	paths           []topology.LinkID

	// covScratch is reused by flowCoverageHole across strict validations
	// (schedules with out-of-order flow segments only). Like the exported
	// fields, it is not safe for concurrent mutation.
	covScratch []Range
}

// NewSchedule allocates an empty schedule for the given topology and data
// size in elements, with the flow segments produced by Partition.
func NewSchedule(alg string, topo *topology.Topology, elems, flows int) *Schedule {
	return &Schedule{
		Algorithm: alg,
		Topo:      topo,
		Elems:     elems,
		Flows:     Partition(elems, flows),
	}
}

// Add appends a transfer with its dependencies and pinned path (nil for
// the topology's route) and returns its id, its index in Transfers. The
// schedule copies deps and path into its arenas, so callers may reuse
// both slices.
func (s *Schedule) Add(t Transfer, deps []TransferID, path []topology.LinkID) TransferID {
	if len(s.depOff) == 0 {
		s.depOff = append(s.depOff, 0)
		s.pathOff = append(s.pathOff, 0)
	}
	s.Transfers = append(s.Transfers, t)
	s.deps = append(s.deps, deps...)
	s.paths = append(s.paths, path...)
	s.depOff = append(s.depOff, arenaOffset(len(s.deps)))
	s.pathOff = append(s.pathOff, arenaOffset(len(s.paths)))
	if int(t.Step) > s.Steps {
		s.Steps = int(t.Step)
	}
	return TransferID(len(s.Transfers) - 1)
}

// maxArena is the largest arena the int32 offsets address.
const maxArena = 1<<31 - 1

// arenaOffset narrows an arena length to an offset. Importers bound
// their counts by maxArena first, so only a builder bug overflows.
func arenaOffset(n int) int32 {
	if n > maxArena {
		panic("collective: schedule arena exceeds 2^31-1 entries")
	}
	return int32(n)
}

// Reserve grows the transfer array and both arenas so that n more
// transfers, with deps dependencies and hops pinned path hops between
// them, append without reallocating.
func (s *Schedule) Reserve(n, deps, hops int) {
	s.Transfers = reserve(s.Transfers, n)
	s.depOff = reserve(s.depOff, n+1)
	s.pathOff = reserve(s.pathOff, n+1)
	s.deps = reserve(s.deps, deps)
	s.paths = reserve(s.paths, hops)
}

// reserve is slices.Grow without the rounding up to a size class, so an
// exact reservation leaves no slack.
func reserve[E any](s []E, n int) []E {
	if cap(s)-len(s) >= n {
		return s
	}
	out := make([]E, len(s), len(s)+n)
	copy(out, s)
	return out
}

// Deps returns the transfers that must complete before transfer i may
// start. The slice aliases the arena; callers must not modify it.
func (s *Schedule) Deps(i int) []TransferID {
	lo, hi := s.depOff[i], s.depOff[i+1]
	return s.deps[lo:hi:hi]
}

// Path returns transfer i's pinned source route (§IV-B), empty when the
// simulators use the topology's deterministic routing. The slice
// aliases the arena; callers must not modify it.
func (s *Schedule) Path(i int) []topology.LinkID {
	lo, hi := s.pathOff[i], s.pathOff[i+1]
	return s.paths[lo:hi:hi]
}

// DepEdges returns the total number of dependency edges.
func (s *Schedule) DepEdges() int { return len(s.deps) }

// WithFlows returns a copy of s over another gradient length and flow
// table. The copy shares s's transfers and arenas.
func (s *Schedule) WithFlows(elems int, flows []Range) *Schedule {
	c := *s
	c.Elems, c.Flows, c.covScratch = elems, flows, nil
	return &c
}

// Seg returns the gradient segment a transfer carries.
func (s *Schedule) Seg(t *Transfer) Range { return s.Flows[t.Flow] }

// Bytes returns the payload bytes of a transfer.
func (s *Schedule) Bytes(t *Transfer) int64 { return s.Flows[t.Flow].Bytes() }

// TotalBytes returns the sum of payload bytes over all transfers, the
// quantity the bandwidth-optimality comparisons of §II-C count.
func (s *Schedule) TotalBytes() int64 {
	var sum int64
	for i := range s.Transfers {
		sum += s.Bytes(&s.Transfers[i])
	}
	return sum
}

// MemBytes returns the resident heap size of the materialized schedule:
// the header, the flow table, the transfer array, both offset arrays
// and both arenas. It is the cost function of the decoded-plan memory
// cache, so it counts what eviction actually frees, not on-wire bytes.
func (s *Schedule) MemBytes() int64 {
	size := int64(unsafe.Sizeof(*s))
	size += int64(len(s.Flows)) * int64(unsafe.Sizeof(Range{}))
	size += int64(len(s.Transfers)) * int64(unsafe.Sizeof(Transfer{}))
	size += int64(len(s.depOff)+len(s.pathOff)) * int64(unsafe.Sizeof(int32(0)))
	size += int64(len(s.deps)) * int64(unsafe.Sizeof(TransferID(0)))
	size += int64(len(s.paths)) * int64(unsafe.Sizeof(topology.LinkID(0)))
	return size
}

// PathOf returns the link path of transfer i: the pinned source route if
// present, otherwise the topology's deterministic route.
func (s *Schedule) PathOf(i int) []topology.LinkID {
	if p := s.Path(i); len(p) > 0 {
		return p
	}
	t := &s.Transfers[i]
	return s.Topo.Route(t.Src, t.Dst)
}

// Partition splits elems into parts contiguous ranges whose lengths differ
// by at most one element, earlier ranges taking the remainder.
func Partition(elems, parts int) []Range {
	if parts <= 0 {
		panic("collective: Partition needs at least one part")
	}
	out := make([]Range, parts)
	base := elems / parts
	rem := elems % parts
	off := 0
	for i := range out {
		n := base
		if i < rem {
			n++
		}
		out[i] = Range{Off: off, Len: n}
		off += n
	}
	return out
}

// Validate checks structural well-formedness: ids in range, src != dst,
// deps reference earlier-validated transfers, flow indices and segment
// ranges within bounds, pinned link paths that exist in the topology and
// connect their endpoints, and the dependency graph being acyclic.
// Algorithms call it in tests; simulators assume a valid schedule.
func (s *Schedule) Validate() error {
	_, err := s.validatedOrder(false)
	return err
}

// validatedOrder runs the validation pipeline once and returns the
// deterministic topological order it computes along the way, so callers
// that need both (the binary exporter, which stores the order's witness
// hash) do not pay for Kahn twice. strict adds the flow-coverage check of
// ValidateStrict.
func (s *Schedule) validatedOrder(strict bool) ([]TransferID, error) {
	if s.Topo == nil {
		return nil, fmt.Errorf("collective: schedule %q has no topology", s.Algorithm)
	}
	for f, r := range s.Flows {
		if r.Off < 0 || r.Len < 0 || r.End() > s.Elems {
			return nil, fmt.Errorf("flow %d: range [%d,%d) outside gradient [0,%d)", f, r.Off, r.End(), s.Elems)
		}
	}
	if err := s.validateTransfers(); err != nil {
		return nil, err
	}
	order, err := s.TopoOrder()
	if err != nil {
		return nil, err
	}
	if strict && s.Elems > 0 && len(s.Transfers) > 0 {
		if hole, ok := s.flowCoverageHole(); ok {
			return nil, fmt.Errorf("collective: flows leave element %d of [0,%d) uncovered", hole, s.Elems)
		}
	}
	return order, nil
}

// validateTransferRange checks the per-transfer structural invariants
// over [lo, hi). The checks are independent per transfer, so large
// schedules shard this across CPUs.
func (s *Schedule) validateTransferRange(lo, hi int) error {
	n := topology.NodeID(s.Topo.Nodes())
	for i := lo; i < hi; i++ {
		t := &s.Transfers[i]
		if t.Src < 0 || t.Src >= n || t.Dst < 0 || t.Dst >= n {
			return fmt.Errorf("transfer %d: endpoint out of range (%d->%d)", i, t.Src, t.Dst)
		}
		if t.Src == t.Dst {
			return fmt.Errorf("transfer %d: self-transfer on node %d", i, t.Src)
		}
		if t.Op != Reduce && t.Op != Gather {
			return fmt.Errorf("transfer %d: bad op %v", i, t.Op)
		}
		if t.Flow < 0 || int(t.Flow) >= len(s.Flows) {
			return fmt.Errorf("transfer %d: flow %d out of range", i, t.Flow)
		}
		if t.Step < 1 {
			return fmt.Errorf("transfer %d: step %d < 1", i, t.Step)
		}
		for _, d := range s.Deps(i) {
			if d < 0 || int(d) >= len(s.Transfers) {
				return fmt.Errorf("transfer %d: dep %d out of range", i, d)
			}
		}
		if path := s.Path(i); len(path) > 0 {
			if err := s.validatePath(t, path); err != nil {
				return fmt.Errorf("transfer %d: %w", i, err)
			}
		}
	}
	return nil
}

// validateParallelMin is the transfer count below which validateTransfers
// stays sequential; goroutine fan-out only pays off on large schedules.
const validateParallelMin = 1 << 16

func (s *Schedule) validateTransfers() error {
	n := len(s.Transfers)
	workers := runtime.GOMAXPROCS(0)
	if n < validateParallelMin || workers <= 1 {
		return s.validateTransferRange(0, n)
	}
	// Shard the read-only pass; report the error of the lowest shard so
	// the result is deterministic regardless of scheduling.
	shards := workers * 4
	chunk := (n + shards - 1) / shards
	errs := make([]error, shards)
	runTreeTasks(workers, shards, func(_, i int) {
		lo := i * chunk
		hi := min(lo+chunk, n)
		if lo < hi {
			errs[i] = s.validateTransferRange(lo, hi)
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// validatePath checks a pinned source route: every link exists in the
// topology and the links chain contiguously from Src to Dst.
func (s *Schedule) validatePath(t *Transfer, path []topology.LinkID) error {
	links := s.Topo.Links()
	at := int(t.Src)
	for hop, id := range path {
		if id < 0 || int(id) >= len(links) {
			return fmt.Errorf("path hop %d: link %d not in topology (%d links)", hop, id, len(links))
		}
		l := links[id]
		if l.Src != at {
			return fmt.Errorf("path hop %d: link %d starts at vertex %d, want %d", hop, id, l.Src, at)
		}
		at = l.Dst
	}
	if at != int(t.Dst) {
		return fmt.Errorf("pinned path ends at vertex %d, want node %d", at, t.Dst)
	}
	return nil
}

// ValidateStrict is the import-time validation: Validate plus the flow
// coverage property — the union of flow segments must cover the whole
// gradient [0, Elems), so no element can escape reduction merely because
// no transfer ever references it.
func (s *Schedule) ValidateStrict() error {
	_, err := s.validatedOrder(true)
	return err
}

// flowCoverageHole returns the first element of [0, Elems) not covered by
// any flow range, if one exists. Partition emits segments in ascending
// offset order, so the common case is a zero-allocation in-place scan;
// out-of-order flow tables fall back to sorting a scratch copy that is
// reused across validations of the same schedule.
func (s *Schedule) flowCoverageHole() (int, bool) {
	ranges := s.Flows
	for i := 1; i < len(ranges); i++ {
		if ranges[i].Off < ranges[i-1].Off {
			s.covScratch = s.covScratch[:0]
			for _, r := range s.Flows {
				if r.Len > 0 {
					s.covScratch = append(s.covScratch, r)
				}
			}
			// slices.SortFunc, unlike sort.Slice, does not allocate — the
			// scratch makes repeat validations allocation-free.
			slices.SortFunc(s.covScratch, func(a, b Range) int { return a.Off - b.Off })
			ranges = s.covScratch
			break
		}
	}
	covered := 0
	for _, r := range ranges {
		if r.Len <= 0 {
			continue
		}
		if r.Off > covered {
			return covered, true
		}
		if r.End() > covered {
			covered = r.End()
		}
	}
	if covered < s.Elems {
		return covered, true
	}
	return 0, false
}

// Dependents is a schedule's successor adjacency in CSR form: transfer
// i's dependents are ids[off[i]:off[i+1]], in ascending id order. Two
// flat arrays instead of one slice per transfer, so a multi-million-
// transfer schedule builds it without per-node allocation.
type Dependents struct {
	off []int32
	ids []TransferID
}

// Of returns transfer id's dependents, ascending.
func (d *Dependents) Of(id TransferID) []TransferID { return d.ids[d.off[id]:d.off[id+1]] }

// Dependents builds the successor CSR. Every dependency must be in range
// (Validate and TopoOrder check it).
func (s *Schedule) Dependents() Dependents {
	n := len(s.Transfers)
	off := make([]int32, n+1)
	for i := range s.Transfers {
		for _, d := range s.Deps(i) {
			off[d]++
		}
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	// off[d] now ends d's region. Filling backwards walks it down to the
	// region's start, leaving each region sorted ascending.
	ids := make([]TransferID, off[n])
	for i := n - 1; i >= 0; i-- {
		for _, d := range s.Deps(i) {
			off[d]--
			ids[off[d]] = TransferID(i)
		}
	}
	return Dependents{off: off, ids: ids}
}

// TopoOrder returns a deterministic topological order of the transfers
// (Kahn's algorithm, ready set drained in id order), or an error if the
// dependency graph has a cycle.
func (s *Schedule) TopoOrder() ([]TransferID, error) {
	n := len(s.Transfers)
	// Identity fast path: when every dependency points backwards (d < i),
	// the min-id Kahn order is exactly 0..n-1 — by induction, after
	// emitting 0..i-1 transfer i is ready and is the smallest ready id.
	// The lowering emits transfers in exactly this shape (deps always
	// reference earlier ids within the same tree's contiguous region), so
	// planner-built schedules skip the heap entirely; anything with a
	// forward or out-of-range dep falls through to the general algorithm,
	// which also reports the range errors.
	identity := true
	for i := range s.Transfers {
		for _, d := range s.Deps(i) {
			if d < 0 || int(d) >= i {
				identity = false
				break
			}
		}
		if !identity {
			break
		}
	}
	if identity {
		order := make([]TransferID, n)
		for i := range order {
			order[i] = TransferID(i)
		}
		return order, nil
	}
	indeg := make([]int32, n)
	for i := range s.Transfers {
		deps := s.Deps(i)
		indeg[i] = int32(len(deps))
		for _, d := range deps {
			if d < 0 || int(d) >= n {
				return nil, fmt.Errorf("collective: transfer %d: dep %d out of range", i, d)
			}
		}
	}
	succ := s.Dependents()

	var ready idHeap
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, TransferID(i))
		}
	}
	heap.Init(&ready)
	order := make([]TransferID, 0, n)
	for ready.Len() > 0 {
		id := heap.Pop(&ready).(TransferID)
		order = append(order, id)
		for _, nxt := range succ.Of(id) {
			indeg[nxt]--
			if indeg[nxt] == 0 {
				heap.Push(&ready, nxt)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("collective: dependency cycle in %s schedule", s.Algorithm)
	}
	return order, nil
}
