package ni_test

import (
	"testing"

	"multitree/internal/collective"
	"multitree/internal/ni"
	"multitree/internal/obs"
	"multitree/internal/topology"
)

// TestMachineTracing runs the Fig. 6 machine under a recorder and checks
// the emitted NI events are consistent with the tables: one activation
// per transmitting entry, NOP counts match the tables' NOP entries, every
// event carries the issue-round timestamp, and metrics counters agree.
func TestMachineTracing(t *testing.T) {
	topo := topology.Torus(4, 4, topology.DefaultLinkConfig())
	tables := compile(t, topo)
	rec := &obs.Recorder{}
	met := obs.NewMetrics(0)
	m := ni.NewMachine(tables, topo.Nodes())
	m.Trace = obs.Tee(rec, met)
	rounds, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}

	var activated, cleared, nops int
	for _, ev := range rec.Events {
		switch ev.Kind {
		case obs.EvNIEntryActivated:
			activated++
		case obs.EvNIDepCleared:
			cleared++
		case obs.EvNILockstep:
			nops++
		default:
			t.Fatalf("machine emitted non-NI event %v", ev.Kind)
		}
		if ev.At < 0 || int(ev.At) >= rounds {
			t.Fatalf("event round %v outside [0,%d)", ev.At, rounds)
		}
		if ev.Node < 0 || int(ev.Node) >= topo.Nodes() {
			t.Fatalf("event node %d outside the %d-node topology", ev.Node, topo.Nodes())
		}
	}
	if activated == 0 || cleared == 0 {
		t.Fatalf("no NI activity traced: activated=%d cleared=%d", activated, cleared)
	}

	wantNOPs := 0
	for n := range tables.PerNode {
		for i := range tables.PerNode[n].Entries {
			if tables.PerNode[n].Entries[i].Op == collective.NOP {
				wantNOPs++
			}
		}
	}
	if nops != wantNOPs {
		t.Fatalf("traced %d lockstep NOPs, tables hold %d", nops, wantNOPs)
	}

	sim := obs.SimReportFrom(met)
	if sim.NIEntriesIssued != int64(activated) || sim.NIDepsCleared != int64(cleared) ||
		sim.NILockstepNOPs != int64(nops) || sim.Events != int64(len(rec.Events)) {
		t.Fatalf("metrics disagree with recorder: %+v, recorded activated=%d cleared=%d nops=%d events=%d",
			*sim, activated, cleared, nops, len(rec.Events))
	}

	// A machine without a tracer behaves identically.
	m2 := ni.NewMachine(tables, topo.Nodes())
	rounds2, err := m2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rounds2 != rounds {
		t.Fatalf("tracing changed the run: %d vs %d rounds", rounds, rounds2)
	}
}
