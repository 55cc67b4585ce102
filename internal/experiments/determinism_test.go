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
// state (typed event heap, rate scratch, link counters) and the
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
// opening scans for releasable transfers — and the heap order must not
// depend on insertion order, so repeat runs are byte-identical.
func TestFluidEqualTimeEventOrder(t *testing.T) {
	topo, err := topospec.Parse("torus-4x4")
	if err != nil {
		t.Fatal(err)
	}
	// Two flows of 564 words: payload 2256 B, wire 2256 + 9*16 = 2400 B,
	// 150 cycles at 16 B/cycle.
	s := collective.NewSchedule("tie", topo, 1128, 2)
	s.Add(collective.Transfer{Src: 0, Dst: 1, Op: collective.Gather, Flow: 0, Step: 1}, nil, nil)
	s.Add(collective.Transfer{Src: 0, Dst: 2, Op: collective.Gather, Flow: 1, Step: 3}, nil, nil)

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

	first := eventStreamBytes(events)
	for i := 0; i < 3; i++ {
		if again := eventStreamBytes(run()); !bytes.Equal(first, again) {
			t.Fatalf("repeat run %d produced a different event stream", i+1)
		}
	}
}
