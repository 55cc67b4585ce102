// Package sim provides a minimal discrete-event simulation engine used by
// the network simulators. Time is measured in integer cycles of the router
// clock (1 GHz in the paper's configuration, so one cycle is one
// nanosecond).
//
// The engine is built for an allocation-free steady state. Events due
// within wheelSize cycles of now, which is nearly every event the packet
// engine schedules, go into a timing wheel of one-cycle slots, each an
// intrusive FIFO list over one pooled arena of 16-byte records, so
// scheduling and popping them is O(1). A wheel record carries no time and
// no sequence number: its slot fixes its cycle and its place in the
// slot's list fixes its order. Farther events wait in a value-based 4-ary
// min-heap ordered by (at, seq). Events run in (at, seq) order, where seq
// is the order they were scheduled in: a heap event due in the same cycle
// as a wheel event was scheduled at least wheelSize cycles before it, so
// the heap root wins every tie. Both tiers reuse their storage, so
// scheduling allocates nothing once the arena and heap have grown to the
// simulation's high-water mark. Every event is typed (a Kind plus two
// int32 arguments) and handed to a single Dispatch function, avoiding both
// closure allocation and interface boxing.
package sim

import (
	"math/bits"

	"multitree/internal/obs"
)

// Time is a simulation timestamp in clock cycles.
type Time uint64

// Kind identifies a typed event. Kind values are defined by the
// engine's user.
type Kind uint8

// wheelRec is one near event in the wheel's arena, 16 bytes. next links
// it to the record after it in its slot, or a free record to the next
// free one.
type wheelRec struct {
	kind Kind
	next int32
	a, b int32
}

// heapRec is one far event. seq breaks ties so that events scheduled
// earlier at the same cycle run first.
type heapRec struct {
	at   Time
	seq  uint64
	kind Kind
	a, b int32
}

// wheelSize is the timing wheel's span in one-cycle slots. Every event in
// the wheel lies in [now, now+wheelSize), so a slot only ever holds one
// cycle's events, and they are appended in the order they were scheduled.
const (
	wheelSize = 1 << 12
	wheelMask = wheelSize - 1
)

// slot is one wheel cycle's FIFO list of arena indices, valid while the
// slot's occupancy bit is set.
type slot struct{ head, tail int32 }

// Engine is a discrete-event simulator driven by a timing wheel for near
// events and a 4-ary min-heap for far ones. The zero value is ready to
// use.
type Engine struct {
	now    Time
	nextID uint64 // seq of the next heap event

	slots [wheelSize]slot
	occ   [wheelSize / 64]uint64 // bit s set: slots[s] is non-empty
	arena []wheelRec             // wheel records, live and free
	free  int32                  // head of the arena's free list
	nfree int                    // records on the free list
	heap  []heapRec              // events wheelSize or more cycles ahead when scheduled

	// Dispatch receives the events scheduled with ScheduleKind/AfterKind.
	// It must be set before the first event fires.
	Dispatch func(kind Kind, a, b int32)

	// Trace, when non-nil, receives an EvEngineQueue sample (pending-event
	// count) after every executed event. The nil default costs one branch
	// per event and nothing else.
	Trace obs.Tracer
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// ScheduleKind enqueues a typed event for Dispatch at absolute time at.
// Scheduling in the past (at < Now) runs the event at the current time
// instead; this keeps zero-latency feedback loops well defined. It
// allocates nothing once the arena and heap have reached the run's
// high-water mark.
func (e *Engine) ScheduleKind(at Time, kind Kind, a, b int32) {
	if at < e.now {
		at = e.now
	}
	if at-e.now < wheelSize {
		e.enwheel(at, wheelRec{kind: kind, a: a, b: b})
	} else {
		e.push(heapRec{at: at, seq: e.nextID, kind: kind, a: a, b: b})
		e.nextID++
	}
}

// AfterKind enqueues a typed event delay cycles from now.
func (e *Engine) AfterKind(delay Time, kind Kind, a, b int32) {
	e.ScheduleKind(e.now+delay, kind, a, b)
}

// Pending reports the number of events waiting to run.
func (e *Engine) Pending() int { return len(e.arena) - e.nfree + len(e.heap) }

// Reset returns the engine to time zero with an empty queue, keeping the
// arena's and heap's backing arrays (and Dispatch/Trace) so a reused
// engine re-runs without reallocating. Sequence numbering restarts, so a
// reset run is cycle- and order-identical to a fresh one.
func (e *Engine) Reset() {
	e.occ = [wheelSize / 64]uint64{}
	e.arena = e.arena[:0]
	e.nfree = 0
	e.heap = e.heap[:0]
	e.now = 0
	e.nextID = 0
}

// Step runs the single earliest pending event and returns true, or returns
// false if the queue is empty.
func (e *Engine) Step() bool {
	s, at, ok := e.first()
	if ok {
		e.run(s, at)
	}
	return ok
}

// Run executes events until the queue drains and returns the final time.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}

// RunUntil executes events with timestamps <= deadline. It returns true if
// the queue drained, false if it stopped at the deadline with work pending.
func (e *Engine) RunUntil(deadline Time) bool {
	for {
		s, at, ok := e.first()
		if !ok {
			return true
		}
		if at > deadline {
			return false
		}
		e.run(s, at)
	}
}

// first locates the earliest pending event by (at, seq): wheel slot s, or
// the heap root when s < 0. The heap root wins a tie, since it was
// scheduled at least wheelSize cycles before any wheel event due in the
// same cycle. ok is false when nothing is pending.
func (e *Engine) first() (s int, at Time, ok bool) {
	if len(e.arena) > e.nfree {
		s = e.firstSlot()
		at = e.now + Time((s-int(e.now&wheelMask))&wheelMask)
		if len(e.heap) == 0 || at < e.heap[0].at {
			return s, at, true
		}
	}
	if len(e.heap) == 0 {
		return -1, 0, false
	}
	return -1, e.heap[0].at, true
}

// firstSlot returns the first occupied slot at or after now's, wrapping;
// the wheel must be non-empty. Since every wheel event lies within one
// span of now, that slot holds the wheel's earliest events.
func (e *Engine) firstSlot() int {
	s := int(e.now & wheelMask)
	w := s >> 6
	if m := e.occ[w] >> (s & 63); m != 0 {
		return s + bits.TrailingZeros64(m)
	}
	for i := 1; i <= len(e.occ); i++ {
		w := (w + i) & (len(e.occ) - 1)
		if m := e.occ[w]; m != 0 {
			return w<<6 + bits.TrailingZeros64(m)
		}
	}
	panic("sim: empty wheel")
}

// run removes the earliest event, due at cycle at, from wheel slot s or
// from the heap root when s < 0, advances time to it and dispatches it.
func (e *Engine) run(s int, at Time) {
	var kind Kind
	var a, b int32
	if s >= 0 {
		ev := e.unwheel(s)
		kind, a, b = ev.kind, ev.a, ev.b
	} else {
		ev := &e.heap[0]
		kind, a, b = ev.kind, ev.a, ev.b
		e.pop()
	}
	e.now = at
	e.Dispatch(kind, a, b)
	if e.Trace != nil {
		e.Trace.Emit(obs.Event{
			Kind: obs.EvEngineQueue, At: float64(e.now), Bytes: int64(e.Pending()),
		})
	}
}

// enwheel appends a near event due at cycle at to its slot's list, taking
// an arena record from the free list or growing the arena.
func (e *Engine) enwheel(at Time, ev wheelRec) {
	var i int32
	if e.nfree > 0 {
		i = e.free
		e.free = e.arena[i].next
		e.nfree--
		e.arena[i] = ev
	} else {
		i = int32(len(e.arena))
		e.arena = append(e.arena, ev)
	}
	s := int(at & wheelMask)
	sl := &e.slots[s]
	if bit := uint64(1) << (s & 63); e.occ[s>>6]&bit == 0 {
		e.occ[s>>6] |= bit
		sl.head = i
	} else {
		e.arena[sl.tail].next = i
	}
	sl.tail = i
}

// unwheel removes and returns the head of slot s, returning its record to
// the free list.
func (e *Engine) unwheel(s int) wheelRec {
	sl := &e.slots[s]
	i := sl.head
	ev := e.arena[i]
	if i == sl.tail {
		e.occ[s>>6] &^= 1 << (s & 63)
	} else {
		sl.head = ev.next
	}
	e.arena[i].next = e.free
	e.free = i
	e.nfree++
	return ev
}

// less orders heap records by (at, seq) — a strict total order, so the
// dispatch sequence is independent of heap arity and layout.
func (e *Engine) less(i, j int) bool {
	x, y := &e.heap[i], &e.heap[j]
	if x.at != y.at {
		return x.at < y.at
	}
	return x.seq < y.seq
}

// push appends a far record and sifts it up the 4-ary heap.
func (e *Engine) push(ev heapRec) {
	e.heap = append(e.heap, ev)
	i := len(e.heap) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !e.less(i, parent) {
			break
		}
		e.heap[i], e.heap[parent] = e.heap[parent], e.heap[i]
		i = parent
	}
}

// pop removes the minimum record.
func (e *Engine) pop() {
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap = e.heap[:n]
	if n > 1 {
		e.siftDown()
	}
}

// siftDown restores heap order from the root of the 4-ary heap. Four-way
// branching halves the tree depth of a binary heap, trading two extra
// comparisons per level for far fewer cache-missing swaps.
func (e *Engine) siftDown() {
	n := len(e.heap)
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			return
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if e.less(c, min) {
				min = c
			}
		}
		if !e.less(min, i) {
			return
		}
		e.heap[i], e.heap[min] = e.heap[min], e.heap[i]
		i = min
	}
}
