package experiments

// Large-fabric guard for the incremental fluid engine: the 256-node
// sweeps that PR 5 makes practical must stay anchored to the packet-level
// reference. The engines are expected to agree tightly on MultiTree
// (contention-free by construction), so the 15% tolerance mirrors the
// resilience suite's cross-engine bound with plenty of slack.

import (
	"math"
	"testing"

	"multitree/internal/algorithms"
	"multitree/internal/network"
	"multitree/internal/topospec"
)

func TestLargeFabricCrossEngine(t *testing.T) {
	topo, err := topospec.Parse("torus-16x16")
	if err != nil {
		t.Fatal(err)
	}
	s, err := algorithms.Build(topo, "multitree", (256<<10)/4, algorithms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := network.DefaultConfig()
	fluid, err := network.SimulateFluid(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	packet, err := network.SimulatePackets(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(fluid.Cycles) / float64(packet.Cycles)
	if math.Abs(ratio-1) > 0.15 {
		t.Errorf("torus-16x16 multitree: fluid %d cycles vs packet %d cycles (ratio %.3f, want within 15%%)",
			fluid.Cycles, packet.Cycles, ratio)
	}
	if fluid.WireBytes != packet.WireBytes {
		t.Errorf("wire bytes diverge: fluid %d, packet %d", fluid.WireBytes, packet.WireBytes)
	}
}
