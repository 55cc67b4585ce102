package network_test

import (
	"testing"

	"multitree/internal/collective"
	"multitree/internal/network"
	"multitree/internal/obs"
	"multitree/internal/sim"
	"multitree/internal/topology"
)

// lineTopo is a 3-node line 0-1-2 for targeted engine tests.
func lineTopo(t *testing.T) *topology.Topology {
	t.Helper()
	c := topology.NewCustom("line3", 3, 0)
	cfg := topology.DefaultLinkConfig()
	c.Link(0, 1, cfg).Link(1, 2, cfg)
	topo, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestLockstepNOPStall: a node whose only send sits at step 3 must stall
// two estimated step times before injecting, even with no dependencies.
func TestLockstepNOPStall(t *testing.T) {
	topo := lineTopo(t)
	s := collective.NewSchedule("unit", topo, 4096, 1)
	s.Add(collective.Transfer{Src: 0, Dst: 1, Op: collective.Gather, Flow: 0, Step: 3}, nil, nil)
	cfg := network.DefaultConfig()

	res, err := network.SimulateFluid(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wire := cfg.WireBytes(4096 * collective.WordSize)
	est := sim.Time((wire + 15) / 16)
	minimum := 2*est + sim.Time(wire/16) + 150
	if res.Cycles < minimum-2 {
		t.Errorf("fluid: %d cycles, want >= %d (2 NOP stalls)", res.Cycles, minimum)
	}

	pres, err := network.SimulatePackets(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pres.Cycles < minimum-64 {
		t.Errorf("packet: %d cycles, want >= %d", pres.Cycles, minimum)
	}

	// Without lockstep the transfer starts immediately.
	cfg.Lockstep = false
	fast, err := network.SimulateFluid(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Cycles >= res.Cycles {
		t.Errorf("disabling lockstep did not remove the stall: %d vs %d", fast.Cycles, res.Cycles)
	}
}

// TestPacketTwoHopLatency pins both engines' time for one transfer over
// the two hops of an idle 3-node line (default config, lockstep off).
// The packet engine stores and forwards: the middle node receives the
// whole packet before sending it on, so each hop costs the packet's
// serialization plus the link latency, 2 × (⌈wire/16⌉ + 150) cycles. The
// fluid engine charges serialization once over the path, 2 × 150 +
// ⌈wire/16⌉. EXPERIMENTS "Known deviations" records the gap.
func TestPacketTwoHopLatency(t *testing.T) {
	topo := lineTopo(t)
	cfg := network.DefaultConfig()
	cfg.Lockstep = false
	for _, c := range []struct {
		bytes         int
		packet, fluid sim.Time
	}{
		{256, 2 * (272/16 + 150), 2*150 + 272/16}, // 334 and 317: 272 B on the wire
		{64, 2 * (80/16 + 150), 2*150 + 80/16},    // 310 and 305: 80 B on the wire
	} {
		s := collective.NewSchedule("unit", topo, c.bytes/collective.WordSize, 1)
		s.Add(collective.Transfer{Src: 0, Dst: 2, Op: collective.Gather, Flow: 0, Step: 1}, nil, nil)
		pres, err := network.SimulatePackets(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fres, err := network.SimulateFluid(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if pres.Cycles != c.packet || fres.Cycles != c.fluid {
			t.Errorf("%d B over 2 hops: packet %d, fluid %d cycles; want %d and %d",
				c.bytes, pres.Cycles, fres.Cycles, c.packet, c.fluid)
		}
	}
}

// TestStepPriorityOrdersLink: under lockstep, when a step-1 flow joins a
// link already carrying a step-2 flow, the step-1 flow runs at full rate
// (as if alone) and the step-2 flow finishes after it, not fair-shared.
func TestStepPriorityOrdersLink(t *testing.T) {
	s := network.StepPrioritySchedule(t)
	cfg := network.DefaultConfig()
	res, err := network.SimulateFluid(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wire := cfg.WireBytes(s.Flows[1].Bytes())
	// Transfer 2 is on the link before transfer 1 becomes ready.
	if entry := sim.Time(wire / 16); res.TransferDone[0] <= entry {
		t.Fatalf("transfer 0 delivered at %d, before node 1 enters step 2 at %d", res.TransferDone[0], entry)
	}
	want := res.TransferDone[0] + sim.Time(wire/16) + 300 // two hops
	if got := res.TransferDone[1]; got > want+2 {
		t.Errorf("step-1 flow done at %d, want ~%d (full rate under priority)", got, want)
	}
	if res.TransferDone[2] <= res.TransferDone[1] {
		t.Errorf("step-2 flow done at %d, before the step-1 flow at %d", res.TransferDone[2], res.TransferDone[1])
	}
}

// TestPacketBackpressure reproduces the Table III buffer-sizing rationale
// ("we configure the buffer size to cover the credit round-trip loop"):
// with the default 4x318-flit buffers a two-hop transfer pipelines at
// full link rate, while buffers below the bandwidth-delay product stall
// on the credit round trip and lose most of the throughput.
func TestPacketBackpressure(t *testing.T) {
	topo := lineTopo(t)
	s := collective.NewSchedule("unit", topo, 64<<10, 1)
	s.Add(collective.Transfer{Src: 0, Dst: 2, Op: collective.Gather, Flow: 0, Step: 1}, nil, nil)
	cfg := network.DefaultConfig()
	cfg.Lockstep = false
	wire := cfg.WireBytes(int64(64<<10) * collective.WordSize)

	deep, err := network.SimulatePackets(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Pipelined bound: one serialization + two link latencies, within one
	// packet time of slack.
	lower := sim.Time(wire/16) + 300
	if deep.Cycles < lower || deep.Cycles > lower+64 {
		t.Errorf("deep buffers: %d cycles, want ~%d (full pipelining)", deep.Cycles, lower)
	}

	shallow := cfg
	shallow.VCs = 1
	shallow.VCDepthFlits = 34 // 544 B, far below the 2.4 KB BDP at 150 ns
	starved, err := network.SimulatePackets(s, shallow)
	if err != nil {
		t.Fatal(err)
	}
	if float64(starved.Cycles) < 2*float64(deep.Cycles) {
		t.Errorf("sub-BDP buffers only cost %d vs %d cycles; credit loop not modeled",
			starved.Cycles, deep.Cycles)
	}
}

// TestLinkBusyAccounting: total link busy time matches wire bytes /
// bandwidth on an uncontended transfer, in both engines.
func TestLinkBusyAccounting(t *testing.T) {
	topo := lineTopo(t)
	s := collective.NewSchedule("unit", topo, 4096, 1)
	s.Add(collective.Transfer{Src: 0, Dst: 1, Op: collective.Gather, Flow: 0, Step: 1}, nil, nil)
	cfg := network.DefaultConfig()
	for name, engine := range map[string]func(*collective.Schedule, network.Config) (*network.Result, error){
		"fluid":  network.SimulateFluid,
		"packet": network.SimulatePackets,
	} {
		res, err := engine(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var busy sim.Time
		for _, b := range res.LinkBusy {
			busy += b
		}
		wire := cfg.WireBytes(4096 * collective.WordSize)
		want := sim.Time(wire / 16)
		if busy < want || busy > want+70 {
			t.Errorf("%s: total link busy %d, want ~%d", name, busy, want)
		}
	}
}

// TestEmptySchedule: both engines handle zero transfers.
func TestEmptySchedule(t *testing.T) {
	topo := lineTopo(t)
	s := collective.NewSchedule("empty", topo, 16, 1)
	for _, engine := range []func(*collective.Schedule, network.Config) (*network.Result, error){
		network.SimulateFluid, network.SimulatePackets,
	} {
		res, err := engine(s, network.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles != 0 {
			t.Errorf("empty schedule took %d cycles", res.Cycles)
		}
	}
}

// TestZeroByteFlows: flows whose chunk rounds to zero elements still clear
// dependencies after the path latency.
func TestZeroByteFlows(t *testing.T) {
	topo := lineTopo(t)
	s := collective.NewSchedule("unit", topo, 1, 2) // flow 1 gets zero elems
	a := s.Add(collective.Transfer{Src: 0, Dst: 1, Op: collective.Gather, Flow: 1, Step: 1}, nil, nil)
	s.Add(collective.Transfer{Src: 1, Dst: 2, Op: collective.Gather, Flow: 0, Step: 2}, []collective.TransferID{a}, nil)
	for name, engine := range map[string]func(*collective.Schedule, network.Config) (*network.Result, error){
		"fluid":  network.SimulateFluid,
		"packet": network.SimulatePackets,
	} {
		res, err := engine(s, network.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Cycles < 300 {
			t.Errorf("%s: %d cycles, want >= two link latencies", name, res.Cycles)
		}
	}
}

// queueSamples counts EvEngineQueue samples: one per executed event.
type queueSamples int

func (q *queueSamples) Emit(ev obs.Event) {
	if ev.Kind == obs.EvEngineQueue {
		*q++
	}
}

// TestPacketEventCounts: a packet costs one event per hop to finish
// serializing and one per hop but its last to arrive; only the transfer's
// final packet schedules its delivery. So a k-hop transfer of n packets
// executes n(2k-1)+2 events, counting its release.
func TestPacketEventCounts(t *testing.T) {
	for _, dst := range []topology.NodeID{1, 2, 10} {
		s := collective.NewSchedule("unit", torus4x4(), 4096, 1)
		s.Add(collective.Transfer{Src: 0, Dst: dst, Op: collective.Gather, Flow: 0, Step: 1}, nil, nil)
		cfg := network.DefaultConfig()
		cfg.Lockstep = false
		var events queueSamples
		cfg.Tracer = &events
		if _, err := network.SimulatePackets(s, cfg); err != nil {
			t.Fatal(err)
		}
		k := len(s.PathOf(0))
		n := int((s.Bytes(&s.Transfers[0]) + int64(cfg.PayloadBytes) - 1) / int64(cfg.PayloadBytes))
		if want := n*(2*k-1) + 2; int(events) != want {
			t.Errorf("%d-hop transfer of %d packets executed %d events, want %d", k, n, events, want)
		}
	}
}

// TestBadConfigRejected: invalid flit/payload combinations error.
func TestBadConfigRejected(t *testing.T) {
	topo := lineTopo(t)
	s := collective.NewSchedule("unit", topo, 16, 1)
	s.Add(collective.Transfer{Src: 0, Dst: 1, Op: collective.Gather, Flow: 0, Step: 1}, nil, nil)
	bad := network.DefaultConfig()
	bad.PayloadBytes = 250 // not a multiple of 16
	if _, err := network.SimulateFluid(s, bad); err == nil {
		t.Error("fluid accepted misaligned payload")
	}
	if _, err := network.SimulatePackets(s, bad); err == nil {
		t.Error("packet accepted misaligned payload")
	}
}
