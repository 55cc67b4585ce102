package network

// The transfer front end both engines share: the §IV-A NI rule that a
// schedule-table entry issues once its dependencies have cleared and,
// under lockstep, once its node has entered the entry's time step. Each
// node issues its entries in step order, one step at a time, and stalls
// one estimated step per NOP gap. The front end owns the dependency
// countdown, the ready, delivered and step-entry events, the step gate
// with its parked transfers, the NOP-gap advance and the stall report;
// the engines keep only their own clocks, event queues and wires.

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"multitree/internal/collective"
	"multitree/internal/faults"
	"multitree/internal/obs"
	"multitree/internal/topology"
)

// stepTime is an engine's clock: float64 cycles in the fluid engine,
// sim.Time in the packet engine.
type stepTime interface{ ~float64 | ~uint64 }

// nodeClock tracks one node's lockstep progress through its active steps.
// steps, stepCnt and stepOff are views into arenas shared by all nodes.
type nodeClock[T stepTime] struct {
	steps   []int32 // sorted distinct steps at which the node sends
	stepCnt []int32 // sends per entry of steps
	stepOff []int32 // per entry of steps: start of its sends in lockstep.sends
	idx     int     // index of the current active step; len(steps) when done
	entered bool    // node has entered steps[idx]; its gate is open
	pending int     // not-yet-injected sends in the current step
	injEnd  T       // completion time of the slowest injection this step
}

// lockstep is one schedule's lockstep tables and node clocks. The front
// end holds a nil *lockstep when Config.Lockstep is off.
type lockstep[T stepTime] struct {
	ts         []collective.Transfer
	estStep    T // estimated step time charged per NOP gap
	clocks     []nodeClock[T]
	sends      []int32 // transfer ids grouped by source node, each node's in (step, id) order
	gateChecks int     // open evaluations this run, for tests
}

// newLockstep lays out each node's sends in (step, id) order and its step
// list, in time linear in the schedule: an LSD radix sort of the transfer
// ids on step, then a stable distribution by source node. The sort takes
// 16-bit digits: one counting pass for any real schedule, and bounded
// scratch for an imported one, whose steps are bounded only from below.
// Every node's steps, counts and segment offsets are views into three
// shared arenas, each allocated once at its exact size.
func newLockstep[T stepTime](s *collective.Schedule, estStep T) *lockstep[T] {
	ts := s.Transfers
	ls := &lockstep[T]{ts: ts, estStep: estStep}
	order := make([]int32, len(ts))
	lo, hi := math.MaxInt, math.MinInt
	for i := range ts {
		order[i] = int32(i)
		lo, hi = min(lo, int(ts[i].Step)), max(hi, int(ts[i].Step))
	}
	span := uint64(hi - lo) // wraps correctly for any int range
	for shift := uint(0); shift < 64 && (shift == 0 || span>>shift > 0); shift += 16 {
		digits := int(min(span>>shift+1, 1<<16))
		order, _ = countingSort(order, digits, func(id int32) int {
			return int(uint64(int(ts[id].Step)-lo) >> shift & 0xffff)
		})
	}
	nNodes := s.Topo.Nodes()
	sends, nodeOff := countingSort(order, nNodes, func(id int32) int { return int(ts[id].Src) })
	ls.sends = sends

	// A node's sends start a new entry wherever the step changes.
	nodeSeg := make([]int, nNodes+1)
	for node := 0; node < nNodes; node++ {
		nodeSeg[node+1] = nodeSeg[node]
		for i := nodeOff[node]; i < nodeOff[node+1]; i++ {
			if i == nodeOff[node] || ts[sends[i]].Step != ts[sends[i-1]].Step {
				nodeSeg[node+1]++
			}
		}
	}
	entries := nodeSeg[nNodes]
	steps := make([]int32, entries)
	stepCnt := make([]int32, entries)
	stepOff := make([]int32, entries)
	k := -1
	for node := 0; node < nNodes; node++ {
		for i := nodeOff[node]; i < nodeOff[node+1]; i++ {
			if step := ts[sends[i]].Step; i == nodeOff[node] || step != steps[k] {
				k++
				steps[k], stepOff[k] = step, i
			}
			stepCnt[k]++
		}
	}
	ls.clocks = make([]nodeClock[T], nNodes)
	for node := range ls.clocks {
		a, b := nodeSeg[node], nodeSeg[node+1]
		c := &ls.clocks[node]
		c.steps, c.stepCnt, c.stepOff = steps[a:b:b], stepCnt[a:b:b], stepOff[a:b:b]
	}
	return ls
}

// countingSort orders ids stably by key, which must lie in [0, nKeys),
// in O(len(ids) + nKeys). Key k's run starts at off[k] in the result;
// off[nKeys] == len(ids).
func countingSort(ids []int32, nKeys int, key func(int32) int) (out, off []int32) {
	off = make([]int32, nKeys+1)
	for _, id := range ids {
		off[key(id)+1]++
	}
	for k := 0; k < nKeys; k++ {
		off[k+1] += off[k]
	}
	next := make([]int32, nKeys)
	copy(next, off)
	out = make([]int32, len(ids))
	for _, id := range ids {
		k := key(id)
		out[next[k]] = id
		next[k]++
	}
	return out, off
}

// reset rewinds every node clock for a fresh run.
func (ls *lockstep[T]) reset() {
	ls.gateChecks = 0
	for node := range ls.clocks {
		c := &ls.clocks[node]
		c.idx, c.entered, c.pending, c.injEnd = 0, false, 0, 0
	}
}

// firstEntry reports when node may enter its first active step. Leading
// NOPs stall like any other gap (§IV-A): a node whose first send is at
// step s waits s-1 estimated steps, keeping all nodes' step clocks
// aligned without global synchronization. ok is false for a node that
// sends nothing.
func (ls *lockstep[T]) firstEntry(node int) (at T, ok bool) {
	c := &ls.clocks[node]
	if len(c.steps) == 0 {
		return 0, false
	}
	return T(c.steps[0]-1) * ls.estStep, true
}

// enter opens node's gate for its current step at now and returns the
// step.
func (ls *lockstep[T]) enter(node int, now T) int32 {
	c := &ls.clocks[node]
	c.entered = true
	c.injEnd = now
	c.pending = int(c.stepCnt[c.idx])
	return c.steps[c.idx]
}

// open reports whether lockstep permits transfer id to inject now: its
// node has entered the transfer's step.
func (ls *lockstep[T]) open(id int32) bool {
	ls.gateChecks++
	t := &ls.ts[id]
	c := &ls.clocks[t.Src]
	return c.entered && c.idx < len(c.steps) && c.steps[c.idx] == t.Step
}

// injected records that one send of node's current step finished
// injecting at now. When it was the step's last, the gate closes and the
// clock moves to the next active step; next then reports when that step
// may be entered: the slowest injection's end plus one estimated step
// per NOP gap between the two.
func (ls *lockstep[T]) injected(node int, now T) (at T, next bool) {
	c := &ls.clocks[node]
	if now > c.injEnd {
		c.injEnd = now
	}
	c.pending--
	if c.pending > 0 {
		return 0, false
	}
	prev := c.steps[c.idx]
	c.idx++
	c.entered = false
	if c.idx >= len(c.steps) {
		return 0, false
	}
	return c.injEnd + T(c.steps[c.idx]-prev-1)*ls.estStep, true
}

// xferState is a transfer's place in the front end.
type xferState uint8

const (
	xfWaiting   xferState = iota // dependencies pending
	xfParked                     // ready, behind its node's closed step gate
	xfIssued                     // handed to the engine to inject
	xfDelivered                  // last byte at its destination
)

// xfer is one transfer's record in the front end.
type xfer struct {
	deps  int32 // undelivered dependencies
	seq   int32 // readiness order, once ready
	state xferState
}

// transferEngine is what the front end asks of an engine.
type transferEngine interface {
	// issue starts injecting transfer id. It may advance the node clock
	// but must not ready, deliver or issue a transfer: whatever else the
	// injection causes happens in later events.
	issue(id int32)
	// inFlight reports whether issued, undelivered transfer id is on its
	// way to its destination rather than stuck at a stall.
	inFlight(id int) bool
	// describeStuck appends the engine's account of an issued transfer
	// that is stuck.
	describeStuck(sb *strings.Builder, id int)
}

// frontEnd releases one schedule's transfers to an engine. A transfer
// becomes ready when its last dependency is delivered; its step gate is
// tested once, then, and a transfer behind a closed gate parks until its
// node enters the transfer's step. Readiness is stamped with a sequence
// number so that a step entry issues its parked transfers in the order
// they became ready.
type frontEnd[T stepTime] struct {
	s       *collective.Schedule
	tr      obs.Tracer
	eng     transferEngine
	ls      *lockstep[T] // nil unless Config.Lockstep
	succ    collective.Dependents
	xf      []xfer // per transfer
	nextSeq int32
	done    int      // delivered transfers
	release []uint64 // enterStep's scratch: the readyKeys it issues
}

// init builds the schedule-derived state; reset rewinds it per run.
func (fe *frontEnd[T]) init(s *collective.Schedule, tr obs.Tracer, eng transferEngine, ls *lockstep[T]) {
	n := len(s.Transfers)
	fe.s, fe.tr, fe.eng, fe.ls = s, tr, eng, ls
	fe.succ = s.Dependents()
	fe.xf = make([]xfer, n)
}

// reset rewinds every transfer and node clock for a fresh run.
func (fe *frontEnd[T]) reset() {
	for i := range fe.xf {
		fe.xf[i] = xfer{deps: int32(len(fe.s.Deps(i)))}
	}
	fe.nextSeq, fe.done = 0, 0
	if fe.ls != nil {
		fe.ls.reset()
	}
}

// readyKey packs transfer id's readiness order above its id, so sorting
// keys sorts transfers by readiness.
func (fe *frontEnd[T]) readyKey(id int32) uint64 {
	return uint64(fe.xf[id].seq)<<32 | uint64(id)
}

// ready handles transfer id, whose dependencies have cleared at now (or
// which has none): it is issued at once or parked behind its node's
// closed step gate. A gate, once open, stays open until every send of its
// step has injected, so this one test is the transfer's only one.
func (fe *frontEnd[T]) ready(id int32, now T) {
	if fe.tr != nil {
		t := &fe.s.Transfers[id]
		fe.tr.Emit(obs.Event{
			Kind: obs.EvTransferReady, At: float64(now), Transfer: id,
			Node: int32(t.Src), Flow: t.Flow, Step: t.Step,
		})
	}
	x := &fe.xf[id]
	x.seq = fe.nextSeq
	fe.nextSeq++
	if fe.ls != nil && !fe.ls.open(id) {
		x.state = xfParked
		return
	}
	x.state = xfIssued
	fe.eng.issue(id)
}

// deliver records that transfer id reached its destination at now and
// readies the dependents it was the last dependency of.
func (fe *frontEnd[T]) deliver(id int32, now T) {
	fe.xf[id].state = xfDelivered
	fe.done++
	if fe.tr != nil {
		t := &fe.s.Transfers[id]
		fe.tr.Emit(obs.Event{
			Kind: obs.EvTransferDelivered, At: float64(now), Transfer: id,
			Node: int32(t.Dst), Flow: t.Flow, Step: t.Step,
		})
	}
	for _, nxt := range fe.succ.Of(collective.TransferID(id)) {
		x := &fe.xf[nxt]
		x.deps--
		if x.deps == 0 {
			fe.ready(int32(nxt), now)
		}
	}
}

// enterStep opens node's gate for its current step at now and issues the
// transfers parked behind it in readiness order. Only the step's own
// sends can be parked behind it, so it scans just that segment of sends.
func (fe *frontEnd[T]) enterStep(node int, now T) {
	ls := fe.ls
	step := ls.enter(node, now)
	if fe.tr != nil {
		fe.tr.Emit(obs.Event{
			Kind: obs.EvStepEnter, At: float64(now), Node: int32(node), Step: step,
		})
	}
	c := &ls.clocks[node]
	off := c.stepOff[c.idx]
	keys := fe.release[:0]
	for _, id := range ls.sends[off : off+c.stepCnt[c.idx]] {
		if fe.xf[id].state == xfParked {
			keys = append(keys, fe.readyKey(id))
		}
	}
	if len(keys) > 1 {
		slices.Sort(keys)
	}
	fe.release = keys
	for _, key := range keys {
		id := int32(uint32(key))
		fe.xf[id].state = xfIssued
		fe.eng.issue(id)
	}
}

// stallError describes why a run can make no more progress: the overall
// counts, the first few blocked transfers with their unmet dependencies,
// closed step gates or stuck injections, and under lockstep the first
// node short of its last step — enough to diagnose fault-induced stalls
// without a trace.
func (fe *frontEnd[T]) stallError(engine string) error {
	s := fe.s
	var sb strings.Builder
	fmt.Fprintf(&sb, "network: %s simulation stalled with %d/%d transfers done (%s on %s)",
		engine, fe.done, len(s.Transfers), s.Algorithm, s.Topo.Name())
	const maxList = 3
	listed, blocked := 0, 0
	for id, x := range fe.xf {
		if x.state == xfDelivered || x.state == xfIssued && fe.eng.inFlight(id) {
			continue
		}
		blocked++
		if listed == maxList {
			continue
		}
		listed++
		switch x.state {
		case xfWaiting:
			fmt.Fprintf(&sb, "; t%d waiting on", id)
			for _, d := range s.Deps(id) {
				if fe.xf[d].state != xfDelivered {
					fmt.Fprintf(&sb, " t%d", d)
				}
			}
		case xfParked:
			fmt.Fprintf(&sb, "; t%d ready, step %d gate closed at node %d",
				id, s.Transfers[id].Step, s.Transfers[id].Src)
		default:
			fmt.Fprintf(&sb, "; t%d", id)
			fe.eng.describeStuck(&sb, id)
		}
	}
	if blocked > listed {
		fmt.Fprintf(&sb, "; and %d more", blocked-listed)
	}
	if fe.ls != nil {
		for node := range fe.ls.clocks {
			c := &fe.ls.clocks[node]
			if c.idx < len(c.steps) {
				fmt.Fprintf(&sb, "; node %d stuck at step %d", node, c.steps[c.idx])
				break
			}
		}
	}
	return fmt.Errorf("%s", sb.String())
}

// failedLink names the first link of path that the fault plan has taken
// down by time now, or returns "".
func failedLink(flt *faults.Compiled, topo *topology.Topology, path []topology.LinkID, now float64) string {
	if flt == nil {
		return ""
	}
	for _, l := range path {
		if at, down := flt.DownAt(l); down && float64(at) <= now {
			lk := topo.Link(l)
			return topo.VertexName(lk.Src) + "->" + topo.VertexName(lk.Dst)
		}
	}
	return ""
}
