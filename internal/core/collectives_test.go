package core

import (
	"math"
	"testing"

	"multitree/internal/collective"
	"multitree/internal/network"
	"multitree/internal/topology"
)

// TestReduceScatterSemantics: after the reduce phase, node i holds the
// fully reduced flow-i segment.
func TestReduceScatterSemantics(t *testing.T) {
	topo := topology.Torus(4, 4, cfg())
	const elems = 320
	s, err := BuildReduceScatter(topo, elems, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	in := collective.RampInputs(topo.Nodes(), elems)
	out, err := collective.Execute(s, in)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, elems)
	for _, v := range in {
		for i, x := range v {
			want[i] += float64(x)
		}
	}
	for node := 0; node < topo.Nodes(); node++ {
		seg := s.Flows[node]
		for i := seg.Off; i < seg.End(); i++ {
			if diff := math.Abs(float64(out[node][i]) - want[i]); diff > 1e-2 {
				t.Fatalf("node %d elem %d = %v, want %v", node, i, out[node][i], want[i])
			}
		}
	}
	// Reduce-scatter moves (N-1)/N * S per node: half an all-reduce.
	full, err := Build(topo, elems, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if 2*s.TotalBytes() != full.TotalBytes() {
		t.Errorf("reduce-scatter bytes %d, want half of all-reduce %d", s.TotalBytes(), full.TotalBytes())
	}
}

// TestAllGatherSemantics: starting from per-node owned segments, every
// node ends with every segment.
func TestAllGatherSemantics(t *testing.T) {
	topo := topology.Torus(4, 4, cfg())
	const elems = 320
	s, err := BuildAllGather(topo, elems, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Node i owns segment i with the pattern i+1; others zero.
	n := topo.Nodes()
	in := make([][]float32, n)
	for i := range in {
		in[i] = make([]float32, elems)
		seg := s.Flows[i]
		for k := seg.Off; k < seg.End(); k++ {
			in[i][k] = float32(i + 1)
		}
	}
	out, err := collective.Execute(s, in)
	if err != nil {
		t.Fatal(err)
	}
	for node := 0; node < n; node++ {
		for owner := 0; owner < n; owner++ {
			seg := s.Flows[owner]
			for k := seg.Off; k < seg.End(); k++ {
				if out[node][k] != float32(owner+1) {
					t.Fatalf("node %d segment %d elem %d = %v, want %v",
						node, owner, k, out[node][k], float32(owner+1))
				}
			}
		}
	}
	// All-gather steps run 1..tot (half the all-reduce schedule).
	if full, _ := Build(topo, elems, Options{}); s.Steps*2 != full.Steps {
		t.Errorf("all-gather steps %d, want half of %d", s.Steps, full.Steps)
	}
}

// TestAllGatherContentionFree: the standalone phases keep the per-step
// link-allocation guarantee.
func TestPhasesContentionFree(t *testing.T) {
	topo := topology.Mesh(4, 4, cfg())
	ag, err := BuildAllGather(topo, 4096, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a := collective.Analyze(ag); !a.ContentionFree() {
		t.Errorf("all-gather contends: %v", a)
	}
	rs, err := BuildReduceScatter(topo, 4096, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a := collective.Analyze(rs); !a.ContentionFree() {
		t.Errorf("reduce-scatter contends: %v", a)
	}
}

// TestAllToAllDelivery: every node receives every other node's
// personalized message (the DLRM-style collective of §VII-B).
func TestAllToAllDelivery(t *testing.T) {
	for _, topo := range []*topology.Topology{
		topology.Mesh(2, 2, cfg()),
		topology.Torus(4, 4, cfg()),
		topology.FatTree(4, 4, 4, cfg()),
	} {
		s, err := BuildAllToAll(topo, 8, Options{})
		if err != nil {
			t.Fatalf("%s: %v", topo.Name(), err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", topo.Name(), err)
		}
		if err := VerifyAllToAll(s, topo, 8); err != nil {
			t.Errorf("%s: %v", topo.Name(), err)
		}
	}
}

// TestAllToAllSimulates: the schedule runs through the network engine.
func TestAllToAllSimulates(t *testing.T) {
	topo := topology.Torus(4, 4, cfg())
	s, err := BuildAllToAll(topo, 1024, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := network.SimulateFluid(s, network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Error("all-to-all took zero time")
	}
}
