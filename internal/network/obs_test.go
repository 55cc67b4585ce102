package network_test

import (
	"math"
	"testing"

	"multitree/internal/collective"
	"multitree/internal/core"
	"multitree/internal/dbtree"
	"multitree/internal/network"
	"multitree/internal/obs"
	"multitree/internal/topology"
)

// traceMultiTree simulates a 1 MiB MultiTree all-reduce on a 4x4 Torus
// under one engine with a recorder and metrics attached.
func traceMultiTree(t *testing.T, packet bool) (*collective.Schedule, *network.Result, *obs.Recorder, *obs.Metrics) {
	t.Helper()
	topo := topology.Torus(4, 4, topology.DefaultLinkConfig())
	s, err := core.Build(topo, (1<<20)/collective.WordSize, core.DefaultOptions(topo))
	if err != nil {
		t.Fatal(err)
	}
	rec := &obs.Recorder{}
	met := obs.NewMetrics(0)
	cfg := network.DefaultConfig()
	cfg.Tracer = obs.Tee(rec, met)
	engine := network.SimulateFluid
	if packet {
		engine = network.SimulatePackets
	}
	res, err := engine(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, res, rec, met
}

// TestCrossEngineAgreement pins the two engines against each other through
// the tracing layer: on a contention-free MultiTree schedule the fluid
// abstraction must reproduce the packet engine's per-link busy time (up to
// per-packet head-flit framing) and both must deliver exactly the same
// transfers.
func TestCrossEngineAgreement(t *testing.T) {
	_, fluidRes, fluidRec, fluidMet := traceMultiTree(t, false)
	s, packetRes, packetRec, packetMet := traceMultiTree(t, true)

	// Per-link busy time agrees within 10%: the packet engine serializes
	// per-packet wire bytes (head flit per 256 B payload), the fluid engine
	// one aggregate wire size per transfer, so small framing differences
	// are expected but nothing structural.
	if len(fluidRes.LinkBusy) != len(packetRes.LinkBusy) {
		t.Fatalf("LinkBusy lengths differ: %d vs %d", len(fluidRes.LinkBusy), len(packetRes.LinkBusy))
	}
	for l := range fluidRes.LinkBusy {
		f, p := float64(fluidRes.LinkBusy[l]), float64(packetRes.LinkBusy[l])
		if f == 0 && p == 0 {
			continue
		}
		if rel := math.Abs(f-p) / math.Max(f, p); rel > 0.10 {
			t.Errorf("link %d busy disagrees: fluid %v packet %v (%.1f%%)", l, f, p, 100*rel)
		}
	}

	// The metrics collector's busy-equivalent accounting must match the
	// engines' own network.Result.LinkBusy — the trace is not a parallel truth.
	checkMetricsMatchResult(t, "fluid", fluidMet, fluidRes)
	checkMetricsMatchResult(t, "packet", packetMet, packetRes)

	// Both engines deliver exactly the schedule's transfer set.
	fluidDel := deliveredSet(fluidRec)
	packetDel := deliveredSet(packetRec)
	if len(fluidDel) != len(s.Transfers) || len(packetDel) != len(s.Transfers) {
		t.Fatalf("delivered %d (fluid) / %d (packet) of %d transfers",
			len(fluidDel), len(packetDel), len(s.Transfers))
	}
	for id := range fluidDel {
		if !packetDel[id] {
			t.Errorf("transfer %d delivered by fluid engine only", id)
		}
	}

	// The dynamic per-step link utilization folded from either engine's
	// event stream equals the static schedule analysis exactly: same
	// links, same steps.
	static := collective.StepUtilization(s)
	links := len(s.Topo.Links())
	for name, met := range map[string]*obs.Metrics{"fluid": fluidMet, "packet": packetMet} {
		dyn := met.StepLinkUtilization(links)
		if len(dyn) != len(static) {
			t.Fatalf("%s: step count %d, static %d", name, len(dyn)-1, len(static)-1)
		}
		for step := 1; step < len(static); step++ {
			if math.Abs(dyn[step]-static[step]) > 1e-12 {
				t.Errorf("%s step %d: traced utilization %v, static %v", name, step, dyn[step], static[step])
			}
		}
	}
}

func checkMetricsMatchResult(t *testing.T, name string, m *obs.Metrics, res *network.Result) {
	t.Helper()
	busy := m.LinkBusy()
	for l, b := range res.LinkBusy {
		got := 0.0
		if l < len(busy) {
			got = busy[l]
		}
		want := float64(b)
		if want == 0 && got == 0 {
			continue
		}
		// The engine tallies whole ceil'd cycles per transfer/packet; the
		// trace carries the unrounded busy-equivalent. Allow 1%.
		if rel := math.Abs(got-want) / math.Max(got, want); rel > 0.01 {
			t.Errorf("%s link %d: metrics busy %v, network.Result.LinkBusy %v", name, l, got, want)
		}
	}
}

func deliveredSet(rec *obs.Recorder) map[int32]bool {
	out := make(map[int32]bool)
	for _, ev := range rec.Events {
		if ev.Kind == obs.EvTransferDelivered {
			out[ev.Transfer] = true
		}
	}
	return out
}

// TestFluidTraceSpansCoverBusy checks the fluid engine's span reporting
// invariant: a flow's link span never claims more busy time than its
// active interval, and spans start no earlier than injection.
func TestFluidTraceSpansCoverBusy(t *testing.T) {
	_, _, rec, _ := traceMultiTree(t, false)
	injected := map[int32]float64{}
	for _, ev := range rec.Events {
		switch ev.Kind {
		case obs.EvTransferInjected:
			injected[ev.Transfer] = ev.At
		case obs.EvLinkAcquired:
			if ev.Busy > ev.Dur+1e-9 {
				t.Fatalf("transfer %d link %d: busy %v exceeds span %v", ev.Transfer, ev.Link, ev.Busy, ev.Dur)
			}
			if at, ok := injected[ev.Transfer]; !ok || ev.At+1e-9 < at {
				t.Fatalf("transfer %d span starts at %v before injection at %v", ev.Transfer, ev.At, at)
			}
		}
	}
}

// TestPacketTraceBackpressure checks the packet engine reports credit
// blocking when buffers are too small for the offered load. MultiTree
// schedules are single-hop and never charge router buffers, so this uses
// DBTree, whose multi-hop tree edges do, and shrinks the input buffers to
// a single packet so any two packets meeting at a hop must block.
func TestPacketTraceBackpressure(t *testing.T) {
	topo := topology.Torus(4, 4, topology.DefaultLinkConfig())
	s, err := dbtree.Build(topo, (256<<10)/collective.WordSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := &obs.Recorder{}
	cfg := network.DefaultConfig()
	cfg.VCs = 1
	cfg.VCDepthFlits = 17 // exactly one 272 B wire packet per buffer
	cfg.Tracer = rec
	if _, err := network.SimulatePackets(s, cfg); err != nil {
		t.Fatal(err)
	}
	blocked := 0
	for _, ev := range rec.Events {
		if ev.Kind == obs.EvLinkBlocked {
			blocked++
		}
	}
	if blocked == 0 {
		t.Fatalf("message-based run reported no credit blocking events")
	}
}
