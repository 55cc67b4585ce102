package sim

import (
	"testing"
	"testing/quick"
)

// stamp is one dispatched event: its time and first argument.
type stamp struct {
	at Time
	a  int32
}

// record installs a Dispatch on e that logs every event it runs.
func record(e *Engine) *[]stamp {
	var got []stamp
	e.Dispatch = func(_ Kind, a, _ int32) { got = append(got, stamp{e.Now(), a}) }
	return &got
}

func TestScheduleOrdering(t *testing.T) {
	var e Engine
	got := record(&e)
	e.ScheduleKind(30, 1, 3, 0)
	e.ScheduleKind(10, 1, 1, 0)
	e.ScheduleKind(20, 1, 2, 0)
	if end := e.Run(); end != 30 {
		t.Errorf("final time = %d, want 30", end)
	}
	want := []stamp{{10, 1}, {20, 2}, {30, 3}}
	if len(*got) != 3 || (*got)[0] != want[0] || (*got)[1] != want[1] || (*got)[2] != want[2] {
		t.Errorf("events ran as %v, want %v", *got, want)
	}
}

func TestTieBreakFIFO(t *testing.T) {
	var e Engine
	got := record(&e)
	for i := int32(0); i < 10; i++ {
		e.ScheduleKind(5, 1, i, 0)
	}
	e.Run()
	for i, v := range *got {
		if v.a != int32(i) {
			t.Fatalf("same-time events reordered: %v", *got)
		}
	}
}

func TestAfterAndNesting(t *testing.T) {
	var e Engine
	var at []Time
	e.Dispatch = func(kind Kind, _, _ int32) {
		at = append(at, e.Now())
		if kind == 1 {
			e.AfterKind(5, 2, 0, 0)
		}
	}
	e.AfterKind(10, 1, 0, 0)
	e.Run()
	if len(at) != 2 || at[0] != 10 || at[1] != 15 {
		t.Errorf("nested AfterKind times = %v, want [10 15]", at)
	}
}

// TestSchedulePastClampsToNow: an event scheduled before the current
// time, between runs, runs at the current time.
func TestSchedulePastClampsToNow(t *testing.T) {
	var e Engine
	got := record(&e)
	e.ScheduleKind(100, 1, 0, 0)
	e.Run()
	e.ScheduleKind(50, 1, 1, 0)
	e.Run()
	if len(*got) != 2 || (*got)[1] != (stamp{100, 1}) {
		t.Errorf("events ran as %v, want the past one clamped to 100", *got)
	}
}

// TestTypedPastClampsToNow: an event a handler schedules in the past runs
// at the handler's time.
func TestTypedPastClampsToNow(t *testing.T) {
	var e Engine
	ran := Time(0)
	e.Dispatch = func(kind Kind, _, _ int32) {
		if kind == 1 {
			e.ScheduleKind(50, 2, 0, 0)
			return
		}
		ran = e.Now()
	}
	e.ScheduleKind(100, 1, 0, 0)
	e.Run()
	if ran != 100 {
		t.Errorf("past typed event ran at %d, want clamped to 100", ran)
	}
}

func TestRunUntil(t *testing.T) {
	var e Engine
	got := record(&e)
	for i := Time(1); i <= 10; i++ {
		e.ScheduleKind(i*10, 1, 0, 0)
	}
	if drained := e.RunUntil(50); drained {
		t.Error("RunUntil(50) claims drained with events pending")
	}
	if len(*got) != 5 {
		t.Errorf("ran %d events by t=50, want 5", len(*got))
	}
	if e.Pending() != 5 {
		t.Errorf("%d pending, want 5", e.Pending())
	}
	if !e.RunUntil(1000) {
		t.Error("RunUntil(1000) should drain")
	}
	if len(*got) != 10 {
		t.Errorf("ran %d events total, want 10", len(*got))
	}
}

func TestStepEmpty(t *testing.T) {
	var e Engine
	if e.Step() {
		t.Error("Step on empty queue returned true")
	}
}

// TestTimeMonotonic is a property test: however events are scheduled, the
// engine dispatches them in nondecreasing time order.
func TestTimeMonotonic(t *testing.T) {
	f := func(delays []uint16) bool {
		var e Engine
		seen := record(&e)
		for _, d := range delays {
			e.ScheduleKind(Time(d), 1, 0, 0)
		}
		e.Run()
		for i := 1; i < len(*seen); i++ {
			if (*seen)[i].at < (*seen)[i-1].at {
				return false
			}
		}
		return len(*seen) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTypedDispatch(t *testing.T) {
	var e Engine
	type rec struct {
		kind Kind
		a, b int32
		at   Time
	}
	var got []rec
	e.Dispatch = func(kind Kind, a, b int32) {
		got = append(got, rec{kind, a, b, e.Now()})
	}
	e.ScheduleKind(20, 2, 7, 8)
	e.ScheduleKind(10, 1, 5, 6)
	e.AfterKind(5, 3, 1, 2)
	if end := e.Run(); end != 20 {
		t.Errorf("final time = %d, want 20", end)
	}
	want := []rec{{3, 1, 2, 5}, {1, 5, 6, 10}, {2, 7, 8, 20}}
	if len(got) != len(want) {
		t.Fatalf("dispatched %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestResetDeterminism: a reset engine replays the same schedule with the
// same dispatch order and final time, without growing its queue storage.
func TestResetDeterminism(t *testing.T) {
	var e Engine
	run := func() []int32 {
		var got []int32
		e.Dispatch = func(kind Kind, a, b int32) {
			got = append(got, a)
			if a < 20 {
				e.AfterKind(Time(a%3+1), 1, a+10, 0)
			}
		}
		for i := int32(0); i < 8; i++ {
			e.ScheduleKind(Time(i%4), 1, i, 0)
		}
		e.Run()
		return got
	}
	first := run()
	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 {
		t.Fatalf("reset left now=%d pending=%d", e.Now(), e.Pending())
	}
	second := run()
	if len(first) != len(second) {
		t.Fatalf("replay ran %d events, first run %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("replay diverged at event %d: %d vs %d", i, second[i], first[i])
		}
	}
}

// TestTypedScheduleZeroAlloc: after warm-up, the typed schedule/run loop
// performs no allocations, for near events in the wheel, far events in
// the heap, and near events pushed after time has wrapped the wheel.
func TestTypedScheduleZeroAlloc(t *testing.T) {
	var e Engine
	e.Dispatch = func(kind Kind, a, b int32) {
		switch {
		case kind == 1 && a > 0:
			e.AfterKind(3, 1, a-1, 0)
		case kind == 2:
			e.AfterKind(wheelSize-1, 1, 2, 0)
		}
	}
	load := func() {
		e.Reset()
		for i := 0; i < 200; i++ {
			e.ScheduleKind(Time(i%16), 1, int32(i%8), 0)
		}
		for i := 0; i < 50; i++ {
			e.ScheduleKind(Time(wheelSize+512*i), 2, 0, 0)
		}
		e.Run()
	}
	load() // warm up the arena and the heap
	if e.Now() < 2*wheelSize {
		t.Fatalf("run ended at %d, before the wheel wrapped", e.Now())
	}
	if allocs := testing.AllocsPerRun(100, load); allocs != 0 {
		t.Errorf("typed schedule/run loop allocates %.1f per run, want 0", allocs)
	}
}

// TestHeapWinsTies: a far (heap) event and near (wheel) events due in the
// same cycle run heap-first, which is (at, seq) order: the heap event was
// scheduled at least wheelSize cycles before any wheel event of its cycle.
// An event the heap event schedules for its own cycle runs after the wheel
// events already waiting there.
func TestHeapWinsTies(t *testing.T) {
	var e Engine
	var got []stamp
	e.Dispatch = func(_ Kind, a, b int32) {
		got = append(got, stamp{e.Now(), a})
		if b != 0 {
			e.AfterKind(0, 1, b, 0)
		}
	}
	const tie = 2 * wheelSize
	e.ScheduleKind(tie, 1, 1, 4) // far when pushed: the heap
	e.ScheduleKind(wheelSize+10, 1, 2, 0)
	e.Step() // now = wheelSize+10, within one span of tie
	e.ScheduleKind(tie, 1, 3, 0)
	e.ScheduleKind(tie, 1, 5, 0)
	if len(e.heap) != 1 || e.Pending() != 3 {
		t.Fatalf("heap holds %d of %d pending events, want 1 of 3", len(e.heap), e.Pending())
	}
	e.Run()
	want := []stamp{{wheelSize + 10, 2}, {tie, 1}, {tie, 3}, {tie, 5}, {tie, 4}}
	if len(got) != len(want) {
		t.Fatalf("events ran as %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("events ran as %v, want %v", got, want)
		}
	}
}
