package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"multitree/internal/obs"
)

// The differential harness drives the Engine and refEngine, a plain slice
// scanned for its (at, seq) minimum, through the same trace of operations
// and requires the same dispatch order, Now and Pending after every
// operation and every dispatched event.

// farDelay is the first delay the engine keeps out of its wheel; traces
// probe both sides of it.
const farDelay = wheelSize

// refEvent is one reference queue entry.
type refEvent struct {
	at   Time
	seq  uint64
	kind Kind
	a, b int32
}

// refEngine is the executable specification of Engine: it dispatches the
// pending event with the least (at, seq), clamps past times to now, and
// restarts time and sequence numbering on Reset.
type refEngine struct {
	now      Time
	seq      uint64
	q        []refEvent
	Dispatch func(kind Kind, a, b int32)
}

func (r *refEngine) Now() Time    { return r.now }
func (r *refEngine) Pending() int { return len(r.q) }
func (r *refEngine) Reset()       { r.now, r.seq, r.q = 0, 0, r.q[:0] }

func (r *refEngine) ScheduleKind(at Time, kind Kind, a, b int32) {
	r.q = append(r.q, refEvent{at: max(at, r.now), seq: r.seq, kind: kind, a: a, b: b})
	r.seq++
}

func (r *refEngine) AfterKind(delay Time, kind Kind, a, b int32) {
	r.ScheduleKind(r.now+delay, kind, a, b)
}

// min returns the index of the least (at, seq) entry, or -1 if none.
func (r *refEngine) min() int {
	m := -1
	for i, ev := range r.q {
		if m < 0 || ev.at < r.q[m].at || ev.at == r.q[m].at && ev.seq < r.q[m].seq {
			m = i
		}
	}
	return m
}

func (r *refEngine) Step() bool {
	m := r.min()
	if m < 0 {
		return false
	}
	ev := r.q[m]
	r.q = append(r.q[:m], r.q[m+1:]...)
	r.now = ev.at
	r.Dispatch(ev.kind, ev.a, ev.b)
	return true
}

func (r *refEngine) RunUntil(deadline Time) bool {
	for m := r.min(); m >= 0; m = r.min() {
		if r.q[m].at > deadline {
			return false
		}
		r.Step()
	}
	return true
}

// queue is the surface Engine and refEngine share.
type queue interface {
	Now() Time
	Pending() int
	Reset()
	ScheduleKind(at Time, kind Kind, a, b int32)
	AfterKind(delay Time, kind Kind, a, b int32)
	Step() bool
	RunUntil(deadline Time) bool
}

// fired is one dispatched event as its handler saw it, with Pending on
// entry and after the handler's own pushes.
type fired struct {
	at             Time
	kind           Kind
	a, b           int32
	pending, after int
}

// spawnDelay is the delay of a child pushed from inside Dispatch; -1
// schedules one cycle in the past, which clamps to now.
var spawnDelay = [8]int64{0, 1, 150, farDelay - 1, farDelay, farDelay + 1, 3 * farDelay, -1}

// driver applies trace operations to one queue and logs its dispatches.
// An event whose b is non-zero pushes a child from inside Dispatch, with
// delay spawnDelay[b&7] and b>>3 as the child's own b, so a byte of b
// spawns at most three generations.
type driver struct {
	q   queue
	ids int32
	log []fired
}

func (d *driver) dispatch(kind Kind, a, b int32) {
	f := fired{at: d.q.Now(), kind: kind, a: a, b: b, pending: d.q.Pending()}
	if b != 0 {
		d.push(spawnDelay[b&7], kind, b>>3)
	}
	f.after = d.q.Pending()
	d.log = append(d.log, f)
}

// push schedules a new event delay cycles from now; a negative delay
// schedules it that far in the past (saturating at zero).
func (d *driver) push(delay int64, kind Kind, b int32) {
	d.ids++
	if delay >= 0 {
		d.q.AfterKind(Time(delay), kind, d.ids, b)
		return
	}
	at := Time(0)
	if back := Time(-delay); back <= d.q.Now() {
		at = d.q.Now() - back
	}
	d.q.ScheduleKind(at, kind, d.ids, b)
}

// Trace operations: each is four bytes, op then x (big-endian uint16)
// then y. op%numOps selects the operation and op/numOps%4 the event kind.
const (
	opNear     = iota // push x%512 cycles ahead
	opFar             // push farDelay+x cycles ahead
	opEdge            // push farDelay-4 .. farDelay+4 cycles ahead
	opPast            // push up to 300 cycles in the past
	opGrid            // push at absolute time (x%256)*1024
	opStep            // Step
	opRunUntil        // RunUntil(now + x)
	opSteps           // up to y%32 Steps
	opReset           // Reset, possibly with events pending
	numOps
)

// apply performs one operation and returns Step's or RunUntil's result,
// or true for the others.
func (d *driver) apply(op byte, x int64, y byte) bool {
	kind, b := Kind(op/numOps%4+1), int32(y)
	switch op % numOps {
	case opNear:
		d.push(x%512, kind, b)
	case opFar:
		d.push(farDelay+x, kind, b)
	case opEdge:
		d.push(farDelay-4+x%9, kind, b)
	case opPast:
		d.push(-(x%300 + 1), kind, b)
	case opGrid:
		d.ids++
		d.q.ScheduleKind(Time(x%256)*1024, kind, d.ids, b)
	case opStep:
		return d.q.Step()
	case opRunUntil:
		return d.q.RunUntil(d.q.Now() + Time(x))
	case opSteps:
		for i := 0; i < int(y%32) && d.q.Step(); i++ {
		}
	case opReset:
		d.q.Reset()
	}
	return true
}

// tracerFunc adapts a function to obs.Tracer.
type tracerFunc func(obs.Event)

func (f tracerFunc) Emit(ev obs.Event) { f(ev) }

// maxTraceBytes bounds a fuzz input so the quadratic reference stays fast.
const maxTraceBytes = 4 << 10

// diffTrace runs data as a trace on an Engine and a refEngine, then
// drains both, and describes the first operation after which they differ.
// It also checks that every EvEngineQueue sample reports the pending
// count after its event, at its event's time.
func diffTrace(data []byte) error {
	if len(data) > maxTraceBytes {
		data = data[:maxTraceBytes]
	}
	var e Engine
	got := &driver{q: &e}
	e.Dispatch = got.dispatch
	var samples []obs.Event
	e.Trace = tracerFunc(func(ev obs.Event) { samples = append(samples, ev) })
	ref := &refEngine{}
	want := &driver{q: ref}
	ref.Dispatch = want.dispatch

	checked := 0
	check := func(i int, r1, r2 bool) error {
		if r1 != r2 || e.Now() != ref.Now() || e.Pending() != ref.Pending() || len(got.log) != len(want.log) {
			return fmt.Errorf("op %d: engine result %v now %d pending %d dispatched %d; reference %v, %d, %d, %d",
				i, r1, e.Now(), e.Pending(), len(got.log), r2, ref.Now(), ref.Pending(), len(want.log))
		}
		for ; checked < len(got.log); checked++ {
			if got.log[checked] != want.log[checked] {
				return fmt.Errorf("op %d: dispatch %d = %+v, reference %+v",
					i, checked, got.log[checked], want.log[checked])
			}
		}
		return nil
	}
	for i := 0; i+4 <= len(data); i += 4 {
		op, x, y := data[i], int64(data[i+1])<<8|int64(data[i+2]), data[i+3]
		if err := check(i/4, got.apply(op, x, y), want.apply(op, x, y)); err != nil {
			return err
		}
	}
	if err := check(len(data)/4, e.RunUntil(^Time(0)), ref.RunUntil(^Time(0))); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if len(samples) != len(got.log) {
		return fmt.Errorf("%d queue samples for %d dispatches", len(samples), len(got.log))
	}
	for i, s := range samples {
		if s.Kind != obs.EvEngineQueue || s.At != float64(got.log[i].at) || s.Bytes != int64(got.log[i].after) {
			return fmt.Errorf("queue sample %d = %+v, want depth %d at %d", i, s, got.log[i].after, got.log[i].at)
		}
	}
	return nil
}

// traceOp encodes one trace operation.
func traceOp(op byte, x int64, y byte) []byte {
	return []byte{op, byte(x >> 8), byte(x), y}
}

// TestEngineMatchesReference: random traces of pushes near, far, across
// the window edge and in the past, with pushes from inside Dispatch,
// RunUntil stops and mid-run Resets, dispatch exactly as the (at, seq)
// reference does.
func TestEngineMatchesReference(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		for n := 0; n < 300; n++ {
			var data []byte
			for i := 0; i < 250; i++ {
				op := byte(rng.Intn(256))
				// Fewer resets, so queues build up between them.
				if op%numOps == opReset && rng.Intn(8) != 0 {
					op -= opReset - opStep
				}
				data = append(data, traceOp(op, int64(rng.Intn(1<<16)), byte(rng.Intn(256)))...)
			}
			if err := diffTrace(data); err != nil {
				t.Fatalf("trace %d: %v", n, err)
			}
		}
	})

	// A far event and a near one at the same cycle: the far one, pushed
	// first, runs first.
	t.Run("far-near-tie", func(t *testing.T) {
		var e Engine
		got := record(&e)
		e.ScheduleKind(3*farDelay, 1, 1, 0) // far when pushed
		e.ScheduleKind(2*farDelay+100, 1, 2, 0)
		e.Step()                            // now = 2*farDelay+100
		e.ScheduleKind(3*farDelay, 1, 3, 0) // near when pushed
		e.Run()
		want := []stamp{{2*farDelay + 100, 2}, {3 * farDelay, 1}, {3 * farDelay, 3}}
		if len(*got) != len(want) {
			t.Fatalf("events ran as %v, want %v", *got, want)
		}
		for i := range want {
			if (*got)[i] != want[i] {
				t.Fatalf("events ran as %v, want %v", *got, want)
			}
		}
	})

	// Events at random times, scheduled at an absolute time or after a
	// delay, dispatch in nondecreasing (time, schedule-order) order, as
	// the reference does.
	t.Run("order-property", func(t *testing.T) {
		f := func(delays []uint16) bool {
			var e Engine
			seen := record(&e)
			ref := &refEngine{}
			var want []stamp
			ref.Dispatch = func(_ Kind, a, _ int32) { want = append(want, stamp{ref.now, a}) }
			for i, d := range delays {
				for _, q := range []queue{&e, ref} {
					if i%2 == 0 {
						q.ScheduleKind(Time(d), 1, int32(i), 0)
					} else {
						q.AfterKind(Time(d), 2, int32(i), 0)
					}
				}
			}
			e.Run()
			ref.RunUntil(^Time(0))
			got := *seen
			if !slices.Equal(got, want) {
				return false
			}
			for i := 1; i < len(got); i++ {
				if got[i].at < got[i-1].at || got[i].at == got[i-1].at && got[i].a < got[i-1].a {
					return false
				}
			}
			return len(got) == len(delays)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Error(err)
		}
	})
}

// FuzzEngineOrder: any trace dispatches exactly as the reference does.
// Seeds live in testdata/fuzz/FuzzEngineOrder.
func FuzzEngineOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := diffTrace(data); err != nil {
			t.Fatal(err)
		}
	})
}
