package experiments

// Determinism guard for the discrete-event core: the same schedule run
// twice through each engine must produce byte-identical traced event
// streams. This pins the (At, seq) tie-break through the heap rewrite —
// any nondeterminism in event ordering (map iteration, heap layout
// dependence, pooled-state leakage between runs) shows up as a diverging
// stream long before it corrupts a Result.

import (
	"bytes"
	"testing"

	"multitree/internal/algorithms"
	"multitree/internal/collective"
	"multitree/internal/network"
	"multitree/internal/obs"
	"multitree/internal/topospec"
)

func TestEngineDeterminism(t *testing.T) {
	const elems = (256 << 10) / collective.WordSize
	for _, spec := range []string{"torus-4x4", "bigraph-32"} {
		topo, err := topospec.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []string{"ring", "multitree"} {
			s, err := algorithms.Build(topo, alg, elems, algorithms.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, eng := range []Engine{Fluid, Packet} {
				t.Run(spec+"/"+alg+"/"+eng.String(), func(t *testing.T) {
					run := func() []byte {
						rec := &obs.Recorder{}
						cfg := network.DefaultConfig()
						cfg.Tracer = rec
						if _, err := eng.run(s, cfg); err != nil {
							t.Fatal(err)
						}
						return eventStreamBytes(rec.Events)
					}
					first := run()
					second := run()
					if !bytes.Equal(first, second) {
						t.Fatalf("two runs produced different event streams (%d vs %d bytes)",
							len(first), len(second))
					}
				})
			}
		}
	}
}

// TestPacketSimReuseDeterminism: the reusable PacketSim must replay the
// identical event stream on every Run, since reset restores all pooled
// state (event heap sequence numbers, packet arena, ring deques).
func TestPacketSimReuseDeterminism(t *testing.T) {
	topo, err := topospec.Parse("torus-4x4")
	if err != nil {
		t.Fatal(err)
	}
	s, err := algorithms.Build(topo, "multitree", (256<<10)/collective.WordSize, algorithms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := &obs.Recorder{}
	cfg := network.DefaultConfig()
	cfg.Tracer = rec
	sim, err := network.NewPacketSim(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var first []byte
	for run := 0; run < 3; run++ {
		rec.Reset()
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		stream := eventStreamBytes(rec.Events)
		if run == 0 {
			first = append(first, stream...)
			continue
		}
		if !bytes.Equal(first, stream) {
			t.Fatalf("run %d diverged from the first run (%d vs %d bytes)",
				run, len(stream), len(first))
		}
	}
}

// TestFluidSimReuseDeterminism: the reusable FluidSim must replay the
// identical event stream on every Run, since reset restores all pooled
// state (event queue, rate scratch, link counters) and the
// epoch-stamped fill scratch never leaks stale entries across runs.
func TestFluidSimReuseDeterminism(t *testing.T) {
	topo, err := topospec.Parse("torus-4x4")
	if err != nil {
		t.Fatal(err)
	}
	s, err := algorithms.Build(topo, "multitree", (256<<10)/collective.WordSize, algorithms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := &obs.Recorder{}
	cfg := network.DefaultConfig()
	cfg.Tracer = rec
	sim, err := network.NewFluidSim(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var first []byte
	for run := 0; run < 3; run++ {
		rec.Reset()
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		stream := eventStreamBytes(rec.Events)
		if run == 0 {
			first = append(first, stream...)
			continue
		}
		if !bytes.Equal(first, stream) {
			t.Fatalf("run %d diverged from the first run (%d vs %d bytes)",
				run, len(stream), len(first))
		}
	}
}

// TestFluidEqualTimeEventOrder pins the fluid engine's total event order
// (at, kind, id) at an exact tie: with 564-word flows on the default
// torus links, a transfer injected alone takes 150 cycles (= estStep
// = path latency), so node 0's first delivery at t=300 coincides exactly
// with its deferred step-3 entry. Arrivals must precede step entries at
// the same instant — the delivery clears dependencies before the gate
// opening scans for releasable transfers — and the queue order must not
// depend on insertion order, so repeat runs are byte-identical.
//
// A second tie at t=450 crosses latency classes: transfer 3 (2 hops,
// injected from t=0) and transfer 2 (1 hop, node 8's first step is 2,
// so it injects from t=150) both arrive at t=450, transfer 3's arrival
// pushed first. Node 4, after its step-1 send, enters step 4 at the
// same instant, two NOP gaps later. The deliveries must pop in id
// order, then the step entry.
func TestFluidEqualTimeEventOrder(t *testing.T) {
	topo, err := topospec.Parse("torus-4x4")
	if err != nil {
		t.Fatal(err)
	}
	// Flows of 564 words: payload 2256 B, wire 2256 + 9*16 = 2400 B,
	// 150 cycles at 16 B/cycle.
	s := collective.NewSchedule("tie", topo, 5*564, 5)
	s.Add(collective.Transfer{Src: 0, Dst: 1, Op: collective.Gather, Flow: 0, Step: 1}, nil, nil)
	s.Add(collective.Transfer{Src: 0, Dst: 2, Op: collective.Gather, Flow: 1, Step: 3}, nil, nil)
	s.Add(collective.Transfer{Src: 8, Dst: 9, Op: collective.Gather, Flow: 2, Step: 2}, nil, nil)
	s.Add(collective.Transfer{Src: 4, Dst: 6, Op: collective.Gather, Flow: 3, Step: 1}, nil, nil)
	s.Add(collective.Transfer{Src: 4, Dst: 5, Op: collective.Gather, Flow: 4, Step: 4}, nil, nil)

	run := func() []obs.Event {
		rec := &obs.Recorder{}
		cfg := network.DefaultConfig()
		cfg.Tracer = rec
		if _, err := network.SimulateFluid(s, cfg); err != nil {
			t.Fatal(err)
		}
		return rec.Events
	}
	events := run()

	deliveredAt, stepAt := -1, -1
	for i, ev := range events {
		if ev.At != 300 {
			continue
		}
		switch {
		case ev.Kind == obs.EvTransferDelivered && ev.Transfer == 0:
			deliveredAt = i
		case ev.Kind == obs.EvStepEnter && ev.Node == 0 && ev.Step == 3:
			stepAt = i
		}
	}
	if deliveredAt < 0 || stepAt < 0 {
		t.Fatalf("tie not exercised: delivery idx %d, step-entry idx %d (want both at t=300)",
			deliveredAt, stepAt)
	}
	if deliveredAt > stepAt {
		t.Errorf("step entry (idx %d) popped before the same-instant delivery (idx %d)",
			stepAt, deliveredAt)
	}

	// The cross-class tie: arrivals pushed at t=150 (transfer 3) and
	// t=300 (transfer 2), both due at t=450.
	idx := map[string]int{}
	for i, ev := range events {
		switch {
		case ev.Kind == obs.EvTransferInjected && ev.Transfer == 3 && ev.At == 0:
			idx["inject3"] = i
		case ev.Kind == obs.EvTransferInjected && ev.Transfer == 2 && ev.At == 150:
			idx["inject2"] = i
		case ev.Kind == obs.EvTransferDelivered && ev.At == 450 && ev.Transfer == 2:
			idx["deliver2"] = i
		case ev.Kind == obs.EvTransferDelivered && ev.At == 450 && ev.Transfer == 3:
			idx["deliver3"] = i
		case ev.Kind == obs.EvStepEnter && ev.At == 450 && ev.Node == 4 && ev.Step == 4:
			idx["step"] = i
		}
	}
	for _, k := range []string{"inject3", "inject2", "deliver2", "deliver3", "step"} {
		if _, ok := idx[k]; !ok {
			t.Fatalf("cross-class tie not exercised: no %s event (found %v)", k, idx)
		}
	}
	if !(idx["deliver2"] < idx["deliver3"] && idx["deliver3"] < idx["step"]) {
		t.Errorf("t=450 pops: delivery 2 at idx %d, delivery 3 at %d, step entry at %d; want that order",
			idx["deliver2"], idx["deliver3"], idx["step"])
	}

	first := eventStreamBytes(events)
	for i := 0; i < 3; i++ {
		if again := eventStreamBytes(run()); !bytes.Equal(first, again) {
			t.Fatalf("repeat run %d produced a different event stream", i+1)
		}
	}
}
