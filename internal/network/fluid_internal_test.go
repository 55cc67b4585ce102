package network

// White-box tests pinning the fluid engine's lockstep NOP-gap machinery:
// deferred enterStep entries and step-priority rate-0 blocking, which the
// black-box suites only exercise indirectly through completion times.

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"multitree/internal/collective"
	"multitree/internal/faults"
	"multitree/internal/topology"
)

func fluidTorus() *topology.Topology {
	return topology.Torus(4, 4, topology.DefaultLinkConfig())
}

// TestFluidDeferredStepEntry: a node whose first send is at step s > 1
// must not enter its step at time 0 — the leading NOP gap stalls
// (s-1)*estStep and the entry is deferred through the timed-event heap.
func TestFluidDeferredStepEntry(t *testing.T) {
	topo := fluidTorus()
	s := collective.NewSchedule("unit", topo, 2048, 2)
	s.Add(collective.Transfer{Src: 1, Dst: 2, Op: collective.Gather, Flow: 0, Step: 1}, nil, nil)
	s.Add(collective.Transfer{Src: 0, Dst: 1, Op: collective.Gather, Flow: 1, Step: 3}, nil, nil)
	cfg := DefaultConfig() // lockstep on

	st := newFluidState(s, cfg, nil)
	c := &st.fe.ls.clocks[0]
	if c.entered {
		t.Fatal("node 0 entered step 3 at time 0; its entry should be deferred")
	}
	// Node 1 sends at step 1: no gap, entered immediately.
	if !st.fe.ls.clocks[1].entered {
		t.Error("node 1 should have entered step 1 at time 0")
	}
	// The deferral is a tevStepEntry heap event at (3-1)*estStep.
	want := 2 * st.fe.ls.estStep
	found := false
	for _, ev := range st.events.heap.ev {
		if ev.kind == tevStepEntry && ev.id == 0 {
			found = true
			if ev.at != want {
				t.Errorf("deferred entry at %v, want %v (2*estStep)", ev.at, want)
			}
		}
	}
	if !found {
		t.Fatal("no deferred step-entry event for node 0 in the heap")
	}
	// And the gate stays closed until then: transfer 1 is ready (no deps)
	// but must not activate.
	if st.fe.xf[1].state != xfParked {
		t.Errorf("transfer 1 state = %d, want xfParked behind the step gate", st.fe.xf[1].state)
	}
}

// TestFluidClockLayout: init's radix sort lays out every node's sends in
// (step, id) order with one clock entry per distinct step, also when the
// steps span more than one 16-bit digit (an imported schedule bounds
// them only from below).
func TestFluidClockLayout(t *testing.T) {
	topo := fluidTorus()
	s := collective.NewSchedule("unit", topo, 2048, 1)
	for i, step := range []int32{math.MaxInt32, 7, 70000, 7, 1, math.MaxInt32, 70000, 3} {
		src := topology.NodeID(i % 3)
		s.Add(collective.Transfer{Src: src, Dst: src + 4, Op: collective.Gather, Step: step}, nil, nil)
	}
	st := newFluidState(s, DefaultConfig(), nil)
	for node := range st.fe.ls.clocks {
		c := &st.fe.ls.clocks[node]
		covered := 0
		for k, step := range c.steps {
			if k > 0 && step <= c.steps[k-1] {
				t.Fatalf("node %d: steps %v not strictly increasing", node, c.steps)
			}
			seg := st.fe.ls.sends[c.stepOff[k] : c.stepOff[k]+int32(c.stepCnt[k])]
			for j, id := range seg {
				if tr := s.Transfers[id]; int(tr.Src) != node || tr.Step != step || (j > 0 && id <= seg[j-1]) {
					t.Fatalf("node %d step %d: segment %v out of (step, id) order", node, step, seg)
				}
			}
			covered += len(seg)
		}
		want := 0
		for i := range s.Transfers {
			if int(s.Transfers[i].Src) == node {
				want++
			}
		}
		if covered != want {
			t.Errorf("node %d: clock covers %d sends, schedule has %d", node, covered, want)
		}
	}
}

// stepPrioritySchedule builds the arbitration case on a 0-1-2 line:
// node 2 sends to node 0 (transfer 0, step 1); node 0's step-1 send to
// node 2 (transfer 1) waits for that delivery; node 1 has nothing at
// step 1, so after one NOP gap it enters step 2 and starts its send to
// node 2 (transfer 2) before transfer 1 is ready. Transfers 1 and 2 then
// share link 1->2.
func stepPrioritySchedule(t *testing.T) *collective.Schedule {
	t.Helper()
	c := topology.NewCustom("line3", 3, 0)
	lc := topology.DefaultLinkConfig()
	c.Link(0, 1, lc).Link(1, 2, lc)
	topo, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := collective.NewSchedule("unit", topo, 3*4096, 3)
	s.Add(collective.Transfer{Src: 2, Dst: 0, Op: collective.Gather, Flow: 0, Step: 1}, nil, nil)
	s.Add(collective.Transfer{Src: 0, Dst: 2, Op: collective.Gather, Flow: 1, Step: 1}, []collective.TransferID{0}, nil)
	s.Add(collective.Transfer{Src: 1, Dst: 2, Op: collective.Gather, Flow: 2, Step: 2}, nil, nil)
	return s
}

// TestFluidStepPriorityRateZero: under lockstep, a flow sharing a link
// with an earlier-step flow is held at rate 0 while the earlier flow runs
// at full link rate; without lockstep, two flows on one link share
// max-min fairly.
func TestFluidStepPriorityRateZero(t *testing.T) {
	s := stepPrioritySchedule(t)
	bw := s.Topo.Link(0).Bandwidth
	st := newFluidState(s, DefaultConfig(), nil)
	for st.flows[1].state != fsActive {
		tNext := st.nextEventTime()
		if math.IsInf(tNext, 1) {
			t.Fatal("step-1 flow never activated")
		}
		st.advanceTo(tNext)
		st.processInjections(st.res)
		st.processTimed(st.res)
		st.activateReady()
		if st.ratesDirty {
			st.recomputeRates()
		}
	}
	if st.flows[2].state != fsActive {
		t.Fatalf("step-2 flow state = %d when the step-1 flow activated, want active", st.flows[2].state)
	}
	if got := st.flows[1].rate; got != bw {
		t.Errorf("step-1 flow rate = %v, want full link rate %v", got, bw)
	}
	if got := st.flows[2].rate; got != 0 {
		t.Errorf("step-2 flow rate = %v, want 0 (blocked by step priority)", got)
	}

	fair := collective.NewSchedule("unit", fluidTorus(), 4096, 2)
	fair.Add(collective.Transfer{Src: 0, Dst: 1, Op: collective.Gather, Flow: 0, Step: 1}, nil, nil)
	fair.Add(collective.Transfer{Src: 0, Dst: 1, Op: collective.Gather, Flow: 1, Step: 2}, nil, nil)
	cfg := DefaultConfig()
	cfg.Lockstep = false // both flows activate immediately
	st = newFluidState(fair, cfg, nil)
	if got := st.flows[0].rate; got != bw/2 {
		t.Errorf("fair-share step-1 flow rate = %v, want %v", got, bw/2)
	}
	if got := st.flows[1].rate; got != bw/2 {
		t.Errorf("fair-share step-2 flow rate = %v, want %v", got, bw/2)
	}
}

// checkFluidRegisters recomputes the per-link occupancy counts and the
// shared-link count from scratch over the active set and compares them
// to the incrementally maintained cnt/shared registers. Under lockstep,
// once rates are assigned, it checks the step filter by its effect: a
// flow that shares a link with an active flow of an earlier step has
// rate 0, and one that shares none, on live links only, has a positive
// rate. checkParked checks the lockstep release index the same way.
func checkFluidRegisters(t *testing.T, st *fluidState) {
	t.Helper()
	checkParked(t, st)
	nLinks := len(st.cnt)
	wantCnt := make([]int32, nLinks)
	minStep := make([]int32, nLinks)
	for l := range minStep {
		minStep[l] = math.MaxInt32
	}
	for _, id := range st.active {
		f := &st.flows[id]
		for _, l := range f.path {
			wantCnt[l]++
			minStep[l] = min(minStep[l], f.step)
		}
	}
	wantShared := 0
	for l := 0; l < nLinks; l++ {
		if wantCnt[l] >= 2 {
			wantShared++
		}
		if st.cnt[l] != wantCnt[l] {
			t.Fatalf("t=%v link %d: incremental cnt=%d, from-scratch=%d",
				st.now, l, st.cnt[l], wantCnt[l])
		}
	}
	if st.shared != wantShared {
		t.Fatalf("t=%v: incremental shared=%d, from-scratch=%d", st.now, st.shared, wantShared)
	}
	if st.fe.ls == nil || st.ratesDirty {
		return
	}
	for _, id := range st.active {
		f := &st.flows[id]
		blocked, live := false, len(f.path) > 0
		for _, l := range f.path {
			blocked = blocked || minStep[l] < f.step
			live = live && st.linkCap(l) > 0
		}
		switch {
		case blocked && f.rate != 0:
			t.Fatalf("t=%v: step-%d flow %d shares a link with an earlier step, at rate %v", st.now, f.step, id, f.rate)
		case !blocked && live && f.rate <= 0:
			t.Fatalf("t=%v: step-%d flow %d shares no link with an earlier step, at rate %v", st.now, f.step, id, f.rate)
		}
	}
}

// checkSoloRates: once rates are assigned with no link shared, on a
// fabric where the closed form applies, every active flow runs at the
// full link rate.
func checkSoloRates(t *testing.T, st *fluidState) {
	t.Helper()
	if st.shared != 0 || st.soloRate == 0 || st.ratesDirty {
		return
	}
	for _, id := range st.active {
		if r := st.flows[id].rate; r != st.soloRate {
			t.Fatalf("t=%v: flow %d alone on its links at rate %v, want %v", st.now, id, r, st.soloRate)
		}
	}
}

// checkParked recomputes the parked set from scratch, as the transfers
// with every dependency delivered, not yet activated and a closed step
// gate, and compares it with the transfers the front end parked. Every
// other transfer with deps met and not yet activated must wait in ready,
// behind an open gate, and the pass's deferral scratch must be empty
// between batches.
func checkParked(t *testing.T, st *fluidState) {
	t.Helper()
	if len(st.still) != 0 {
		t.Fatalf("t=%v: %d deferred releases left over after the pass", st.now, len(st.still))
	}
	inReady := make(map[int32]bool, len(st.ready))
	for _, key := range st.ready {
		id := int32(uint32(key))
		if inReady[id] {
			t.Fatalf("t=%v: transfer %d queued twice in ready", st.now, id)
		}
		inReady[id] = true
	}
	for id := range st.flows {
		state := st.fe.xf[id].state
		tr := &st.s.Transfers[id]
		left := int32(0)
		for _, d := range st.s.Deps(id) {
			if st.fe.xf[d].state != xfDelivered {
				left++
			}
		}
		if state != xfDelivered && st.fe.xf[id].deps != left {
			t.Fatalf("t=%v: transfer %d counts %d deps left, %d undelivered", st.now, id, st.fe.xf[id].deps, left)
		}
		pending := left == 0 && state != xfDelivered && st.flows[id].state == fsWaiting
		if !pending {
			if state == xfParked || inReady[int32(id)] {
				t.Fatalf("t=%v: transfer %d (state %d, %d deps left) parked or queued", st.now, id, state, left)
			}
			continue
		}
		open := true
		if ls := st.fe.ls; ls != nil {
			c := &ls.clocks[tr.Src]
			open = c.entered && c.idx < len(c.steps) && c.steps[c.idx] == tr.Step
		}
		if parked := state == xfParked; parked == open {
			t.Fatalf("t=%v: transfer %d parked=%v with its step-%d gate open=%v at node %d",
				st.now, id, parked, tr.Step, open, tr.Src)
		}
		if open != inReady[int32(id)] {
			t.Fatalf("t=%v: transfer %d behind an open gate, queued in ready=%v", st.now, id, inReady[int32(id)])
		}
	}
}

// runWithRegisterChecks replays the engine's event loop step by step,
// validating the incremental registers against a from-scratch recompute,
// and the closed-form rates, after every event batch. Returns true if the run stalled (expected for
// dead-link fault plans).
func runWithRegisterChecks(t *testing.T, s *collective.Schedule, cfg Config) bool {
	t.Helper()
	flt, err := faults.Compile(cfg.Faults, s.Topo)
	if err != nil {
		t.Fatal(err)
	}
	st := newFluidState(s, cfg, flt)
	checkFluidRegisters(t, st)
	checkSoloRates(t, st)
	for st.fe.done < len(st.flows) {
		tNext := st.nextEventTime()
		if math.IsInf(tNext, 1) {
			checkFluidRegisters(t, st)
			return true
		}
		st.advanceTo(tNext)
		st.processInjections(st.res)
		st.processTimed(st.res)
		st.activateReady()
		if st.ratesDirty {
			st.recomputeRates()
		}
		checkFluidRegisters(t, st)
		checkSoloRates(t, st)
	}
	return false
}

// TestFluidEngineSteadyStateAllocs: after the first run has grown every
// backing array to its high-water mark, re-running the simulation
// performs zero heap allocations.
func TestFluidEngineSteadyStateAllocs(t *testing.T) {
	s := chainSchedule(t, (64<<10)/4, 4)
	sim, err := NewFluidSim(s, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	first, err := sim.Run() // warm-up: grows the event queue and rate scratch
	if err != nil {
		t.Fatal(err)
	}
	warmCycles := first.Cycles
	allocs := testing.AllocsPerRun(3, func() {
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles != warmCycles {
			t.Fatalf("rerun finished in %d cycles, warm-up in %d", res.Cycles, warmCycles)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state event loop allocates %.1f per run, want 0", allocs)
	}
}

// TestFluidSimMatchesSimulateFluid: the reusable simulator and the
// one-shot entry point are the same engine, run after run.
func TestFluidSimMatchesSimulateFluid(t *testing.T) {
	s := chainSchedule(t, (16<<10)/4, 2)
	cfg := DefaultConfig()
	oneShot, err := SimulateFluid(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewFluidSim(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles != oneShot.Cycles {
			t.Fatalf("run %d: FluidSim finished in %d cycles, SimulateFluid in %d",
				run, res.Cycles, oneShot.Cycles)
		}
		if !reflect.DeepEqual(res.TransferDone, oneShot.TransferDone) {
			t.Fatalf("run %d: per-transfer completion times diverge", run)
		}
		if !reflect.DeepEqual(res.LinkBusy, oneShot.LinkBusy) {
			t.Fatalf("run %d: link busy times diverge", run)
		}
	}
}

// TestTevQueueMatchesSort drives the event queue as the engine does,
// with time never going back: at each instant it pushes arrivals, one
// same-instant batch per latency in shuffled id order, plus step entries
// and faults, many of them at instants where arrivals of other latencies
// land too. Latency 0 lands at the current instant, as a zero-byte
// self-transfer does, so pops and pushes interleave within one instant
// and a pushed id can be lower than ids still pending in a run already
// partly popped. Every pop must be the least pending event, found by a
// sort by tevLess: time order from the FIFOs, id order from each tail's
// same-instant sort, kind order from the merge.
func TestTevQueueMatchesSort(t *testing.T) {
	cmp := func(a, b timedEvent) int {
		switch {
		case tevLess(a, b):
			return -1
		case tevLess(b, a):
			return 1
		}
		return 0
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q tevQueue
		var pending []timedEvent
		pops := 0
		pop := func(now float64, limit int) {
			for ; limit > 0; limit-- {
				ev, src, ok := q.front()
				if !ok || ev.at > now {
					return
				}
				q.pop(src)
				slices.SortFunc(pending, cmp)
				if ev != pending[0] {
					t.Fatalf("seed %d: pop %d is %+v, sorted pending events start with %+v", seed, pops, ev, pending[0])
				}
				pending = pending[1:]
				pops++
			}
		}
		now := 0.0
		for round := 0; round < 200; round++ {
			now += float64(rng.Intn(3)) // repeated instants push more of the same runs
			for phase := rng.Intn(3); phase >= 0; phase-- {
				for _, lat := range rng.Perm(8)[:rng.Intn(4)+1] {
					for range rng.Intn(6) + 1 {
						// Random ids put lower ids after higher ones, also
						// behind a partly popped same-instant run.
						e := timedEvent{at: now + float64(lat), kind: tevArrival, id: rng.Int31n(1 << 20)}
						q.pushArrival(e.at, float64(lat), e.id)
						pending = append(pending, e)
					}
				}
				if rng.Intn(2) == 0 {
					e := timedEvent{at: now + float64(rng.Intn(8)+1), kind: tevStepEntry, id: int32(rng.Intn(16))}
					q.heap.push(e)
					pending = append(pending, e)
				}
				if rng.Intn(4) == 0 {
					e := timedEvent{at: now + float64(rng.Intn(8)+1), kind: tevFault, id: int32(rng.Intn(4))}
					q.heap.push(e)
					pending = append(pending, e)
				}
				pop(now, rng.Intn(4)) // part of what is due
			}
			pop(now, math.MaxInt) // the rest of it, before time moves on
		}
		pop(math.Inf(1), math.MaxInt)
		if len(pending) != 0 {
			t.Fatalf("seed %d: %d events pushed but never popped", seed, len(pending))
		}
	}
}
