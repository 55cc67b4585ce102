package multitree

import (
	"fmt"
	"testing"

	"multitree/internal/network"
	"multitree/internal/topospec"
)

// TestEndToEndMatrix is the integration sweep: every fabric family x
// every supported algorithm, built and verified for all-reduce
// correctness through the facade and simulated by both engines at a
// small size. The fabrics come from topology specs, as -topo takes them.
func TestEndToEndMatrix(t *testing.T) {
	for _, spec := range []string{
		"torus-4x4", "mesh-4x4", "fattree-16", "bigraph-32",
		"torus3d-2x2x4", "mesh3d-2x2x4", "dragonfly-4x4x1",
	} {
		tt, err := topospec.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		topo := &Topology{t: tt}
		for _, alg := range Algorithms() {
			if !topo.Supports(alg) {
				continue
			}
			t.Run(fmt.Sprintf("%s/%s", topo.Name(), alg), func(t *testing.T) {
				s, err := BuildSchedule(topo, alg, 64<<10)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Verify(); err != nil {
					t.Fatal(err)
				}
				fluid, err := s.Simulate(SimOptions{})
				if err != nil {
					t.Fatal(err)
				}
				packet, err := network.SimulatePackets(s.s, network.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				if fluid.Cycles == 0 || packet.Cycles == 0 {
					t.Fatalf("zero-cycle simulation: fluid %d packet %d", fluid.Cycles, packet.Cycles)
				}
				// MultiTree stays contention-free everywhere.
				if alg == MultiTree && !s.ContentionFree() {
					t.Error("multitree schedule contends")
				}
			})
		}
	}
}

// TestEndToEndTrainingMatrix smoke-tests every model under both training
// modes through the public API.
func TestEndToEndTrainingMatrix(t *testing.T) {
	topo := NewTorus(4, 4)
	for _, name := range Models() {
		for _, overlapped := range []bool{false, true} {
			r, err := SimulateTraining(topo, MultiTree, name,
				TrainingOptions{Overlapped: overlapped, Sim: SimOptions{MessageBased: true}})
			if err != nil {
				t.Fatalf("%s overlapped=%v: %v", name, overlapped, err)
			}
			if r.TotalCycles == 0 {
				t.Errorf("%s overlapped=%v: zero total", name, overlapped)
			}
			if r.OverlapCycles+r.ExposedCycles != r.CommCycles {
				t.Errorf("%s overlapped=%v: comm accounting broken: %+v", name, overlapped, r)
			}
		}
	}
}
