package network

// Schedule-derived state shared by both engines: the §IV-A lockstep NI
// regulation — each node issues its table entries in step order, one
// step at a time, and stalls one estimated step per NOP gap. The engines keep only their own clocks and
// event queues; the step tables, the gate test, the NOP-gap advance and
// the stall report live here once.

import (
	"fmt"
	"math"
	"strings"

	"multitree/internal/collective"
	"multitree/internal/faults"
	"multitree/internal/topology"
)

// stepTime is an engine's clock: float64 cycles in the fluid engine,
// sim.Time in the packet engine.
type stepTime interface{ ~float64 | ~uint64 }

// nodeClock tracks one node's lockstep progress through its active steps.
// steps, stepCnt and stepOff are views into arenas shared by all nodes.
type nodeClock[T stepTime] struct {
	steps   []int32 // sorted distinct steps at which the node sends
	stepCnt []int   // sends per entry of steps
	stepOff []int32 // per entry of steps: start of its sends in lockstep.sends
	sendOff int32   // start of the node's sends, and of its parked list
	nParked int32   // length of the node's parked list
	idx     int     // index of the current active step; len(steps) when done
	entered bool    // node has entered steps[idx]; its gate is open
	pending int     // not-yet-injected sends in the current step
	injEnd  T       // completion time of the slowest injection this step
}

// lockstep is one schedule's lockstep tables and node clocks. Engines
// hold a nil *lockstep when Config.Lockstep is off.
type lockstep[T stepTime] struct {
	ts      []collective.Transfer
	estStep T // estimated step time charged per NOP gap
	clocks  []nodeClock[T]
	sends   []int32 // transfer ids grouped by source node, each node's in (step, id) order
	// parked holds, at each node's sendOff, the transfers parked behind
	// its closed gate in the order they parked. Only the packet engine
	// parks here; the fluid engine marks parked flows in place.
	parked     []int32
	gateChecks int // open evaluations this run, for tests
}

// newLockstep lays out each node's sends in (step, id) order and its step
// list, in time linear in the schedule: an LSD radix sort of the transfer
// ids on step, then a stable distribution by source node. The sort takes
// 16-bit digits: one counting pass for any real schedule, and bounded
// scratch for an imported one, whose steps are bounded only from below.
// Every node's steps, counts and segment offsets are views into three
// shared arenas. parking allocates the parked lists.
func newLockstep[T stepTime](s *collective.Schedule, estStep T, parking bool) *lockstep[T] {
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
	if parking {
		ls.parked = make([]int32, len(ts))
	}

	var steps []int32
	var stepCnt []int
	var stepOff []int32
	nodeSeg := make([]int, nNodes+1)
	for node := 0; node < nNodes; node++ {
		nodeSeg[node] = len(steps)
		for i := nodeOff[node]; i < nodeOff[node+1]; i++ {
			step := ts[sends[i]].Step
			if i == nodeOff[node] || step != steps[len(steps)-1] {
				steps = append(steps, step)
				stepCnt = append(stepCnt, 0)
				stepOff = append(stepOff, i)
			}
			stepCnt[len(stepCnt)-1]++
		}
	}
	nodeSeg[nNodes] = len(steps)
	ls.clocks = make([]nodeClock[T], nNodes)
	for node := range ls.clocks {
		a, b := nodeSeg[node], nodeSeg[node+1]
		c := &ls.clocks[node]
		c.steps, c.stepCnt, c.stepOff = steps[a:b:b], stepCnt[a:b:b], stepOff[a:b:b]
		c.sendOff = nodeOff[node]
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
		c.idx, c.entered, c.pending, c.injEnd, c.nParked = 0, false, 0, 0, 0
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
	c.pending = c.stepCnt[c.idx]
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

// park appends transfer id, whose gate is closed, to its node's parked
// list. A node parks at most its own sends, so the list fits its segment.
func (ls *lockstep[T]) park(id int32) {
	c := &ls.clocks[ls.ts[id].Src]
	ls.parked[c.sendOff+c.nParked] = id
	c.nParked++
}

// unpark empties node's parked list and returns its contents in park
// order. The caller re-tests each gate in turn and re-parks the
// transfers still closed out: their writes land at or behind the entry
// being read, so the list compacts in place. This needs that nothing else
// parks at the node meanwhile, which holds because releasing a transfer
// only injects it; its dependents become ready in later events.
func (ls *lockstep[T]) unpark(node int) []int32 {
	c := &ls.clocks[node]
	list := ls.parked[c.sendOff : c.sendOff+c.nParked]
	c.nParked = 0
	return list
}

// stallReason is why a transfer is not yet delivered when a run stalls.
type stallReason uint8

const (
	delivered   stallReason = iota
	inFlight                // injected and on its way: not blocked
	depsPending             // waiting on undelivered dependencies
	gateClosed              // ready, parked behind its node's closed step gate
	linkStuck               // injecting without progress; the engine says why
)

// stalledEngine is what the stall report asks of an engine.
type stalledEngine interface {
	stallReason(id int) stallReason
	// describeStuck appends the engine's account of a linkStuck transfer.
	describeStuck(sb *strings.Builder, id int)
}

// stallError describes why a run can make no more progress: the overall
// counts, the first few blocked transfers with their unmet dependencies,
// closed step gates or stuck injections, and under lockstep the first
// node short of its last step — enough to diagnose fault-induced stalls
// without a trace.
func stallError[T stepTime](engine string, s *collective.Schedule, done int, ls *lockstep[T], e stalledEngine) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "network: %s simulation stalled with %d/%d transfers done (%s on %s)",
		engine, done, len(s.Transfers), s.Algorithm, s.Topo.Name())
	const maxList = 3
	listed, blocked := 0, 0
	for id := range s.Transfers {
		why := e.stallReason(id)
		if why == delivered || why == inFlight {
			continue
		}
		blocked++
		if listed == maxList {
			continue
		}
		listed++
		switch why {
		case depsPending:
			fmt.Fprintf(&sb, "; t%d waiting on", id)
			for _, d := range s.Deps(id) {
				if e.stallReason(int(d)) != delivered {
					fmt.Fprintf(&sb, " t%d", d)
				}
			}
		case gateClosed:
			fmt.Fprintf(&sb, "; t%d ready, step %d gate closed at node %d",
				id, s.Transfers[id].Step, s.Transfers[id].Src)
		default:
			fmt.Fprintf(&sb, "; t%d", id)
			e.describeStuck(&sb, id)
		}
	}
	if blocked > listed {
		fmt.Fprintf(&sb, "; and %d more", blocked-listed)
	}
	if ls != nil {
		for node := range ls.clocks {
			c := &ls.clocks[node]
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
