// Package sim provides a minimal discrete-event simulation engine used by
// the network simulators. Time is measured in integer cycles of the router
// clock (1 GHz in the paper's configuration, so one cycle is one
// nanosecond).
//
// The engine is built for an allocation-free steady state: the event queue
// is a value-based 4-ary min-heap of small typed records ordered by
// (At, seq), so scheduling allocates nothing once the heap's backing array
// has grown to the simulation's high-water mark. Every event is typed (a
// Kind plus two int32 arguments) and handed to a single Dispatch
// function, avoiding both closure allocation and interface boxing.
package sim

import (
	"multitree/internal/obs"
)

// Time is a simulation timestamp in clock cycles.
type Time uint64

// Kind identifies a typed event. Kind values are defined by the
// engine's user.
type Kind uint8

// event is one queued record. seq breaks ties so that events scheduled
// earlier at the same cycle run first, keeping runs deterministic
// regardless of heap shape.
type event struct {
	at   Time
	seq  uint64
	kind Kind
	a, b int32
}

// Engine is a discrete-event simulator driven by a 4-ary min-heap event
// queue. The zero value is ready to use.
type Engine struct {
	now    Time
	nextID uint64
	heap   []event

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
// allocates nothing once the heap's backing array has reached the run's
// high-water mark.
func (e *Engine) ScheduleKind(at Time, kind Kind, a, b int32) {
	if at < e.now {
		at = e.now
	}
	e.push(event{at: at, seq: e.nextID, kind: kind, a: a, b: b})
	e.nextID++
}

// AfterKind enqueues a typed event delay cycles from now.
func (e *Engine) AfterKind(delay Time, kind Kind, a, b int32) {
	e.ScheduleKind(e.now+delay, kind, a, b)
}

// Pending reports the number of events waiting to run.
func (e *Engine) Pending() int { return len(e.heap) }

// Reset returns the engine to time zero with an empty queue, keeping the
// heap's backing array (and Dispatch/Trace) so a reused engine re-runs
// without reallocating. Sequence numbering restarts, so a reset run is
// cycle- and order-identical to a fresh one.
func (e *Engine) Reset() {
	e.heap = e.heap[:0]
	e.now = 0
	e.nextID = 0
}

// Step runs the single earliest pending event and returns true, or returns
// false if the queue is empty.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	ev := e.heap[0]
	e.pop()
	e.now = ev.at
	e.Dispatch(ev.kind, ev.a, ev.b)
	if e.Trace != nil {
		e.Trace.Emit(obs.Event{
			Kind: obs.EvEngineQueue, At: float64(e.now), Bytes: int64(len(e.heap)),
		})
	}
	return true
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
	for len(e.heap) > 0 {
		if e.heap[0].at > deadline {
			return false
		}
		e.Step()
	}
	return true
}

// less orders events by (at, seq) — a strict total order, so the dispatch
// sequence is independent of heap arity and layout.
func (e *Engine) less(i, j int) bool {
	if e.heap[i].at != e.heap[j].at {
		return e.heap[i].at < e.heap[j].at
	}
	return e.heap[i].seq < e.heap[j].seq
}

// push appends the record and sifts it up the 4-ary heap.
func (e *Engine) push(ev event) {
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
