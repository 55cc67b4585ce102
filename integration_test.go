package multitree_test

import (
	"fmt"
	"testing"

	multitree "multitree"
)

// TestEndToEndMatrix is the integration sweep: every public topology
// constructor x every supported algorithm, verified for all-reduce
// correctness and simulated by both engines at a small size.
func TestEndToEndMatrix(t *testing.T) {
	topos := []*multitree.Topology{
		multitree.NewTorus(4, 4),
		multitree.NewMesh(4, 4),
		multitree.NewFatTree(4, 4, 4),
		multitree.NewBiGraph(4, 4),
		multitree.NewTorus3D(2, 2, 4),
		multitree.NewMesh3D(2, 2, 4),
		multitree.NewDragonfly(4, 4, 1),
	}
	for _, topo := range topos {
		for _, alg := range multitree.Algorithms() {
			if !topo.Supports(alg) {
				continue
			}
			t.Run(fmt.Sprintf("%s/%s", topo.Name(), alg), func(t *testing.T) {
				s, err := multitree.BuildSchedule(topo, alg, 64<<10, multitree.PlanOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Verify(); err != nil {
					t.Fatal(err)
				}
				fluid, err := s.Simulate(multitree.SimOptions{})
				if err != nil {
					t.Fatal(err)
				}
				packet, err := s.Simulate(multitree.SimOptions{PacketLevel: true})
				if err != nil {
					t.Fatal(err)
				}
				if fluid.Cycles == 0 || packet.Cycles == 0 {
					t.Fatalf("zero-cycle simulation: fluid %d packet %d", fluid.Cycles, packet.Cycles)
				}
				// MultiTree stays contention-free everywhere.
				if alg == multitree.MultiTree && !s.ContentionFree() {
					t.Error("multitree schedule contends")
				}
			})
		}
	}
}

// TestEndToEndTrainingMatrix smoke-tests every model under both training
// modes through the public API.
func TestEndToEndTrainingMatrix(t *testing.T) {
	topo := multitree.NewTorus(4, 4)
	for _, name := range multitree.Models() {
		for _, overlapped := range []bool{false, true} {
			r, err := multitree.SimulateTraining(topo, multitree.MultiTree, name,
				multitree.TrainingOptions{Overlapped: overlapped, Sim: multitree.SimOptions{MessageBased: true}})
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
