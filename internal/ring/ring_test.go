package ring_test

import (
	"testing"
	"testing/quick"

	"multitree/internal/collective"
	"multitree/internal/ring"
	"multitree/internal/topology"
)

func cfg() topology.LinkConfig { return topology.DefaultLinkConfig() }

func TestStepsAndVolume(t *testing.T) {
	topo := topology.Torus(4, 4, cfg())
	s := ring.Build(topo, 1600)
	n := int64(topo.Nodes())
	if s.Steps != 2*(int(n)-1) {
		t.Errorf("steps = %d, want %d", s.Steps, 2*(n-1))
	}
	if len(s.Transfers) != int(2*n*(n-1)) {
		t.Errorf("transfers = %d, want %d", len(s.Transfers), 2*n*(n-1))
	}
	// Bandwidth-optimal: total bytes = 2(N-1) * S.
	want := 2 * (n - 1) * 1600 * collective.WordSize
	if got := s.TotalBytes(); got != want {
		t.Errorf("total bytes = %d, want %d", got, want)
	}
	a := collective.Analyze(s)
	if a.BandwidthOverhead() != 1.0 {
		t.Errorf("bandwidth overhead = %v, want 1.0", a.BandwidthOverhead())
	}
}

// TestContentionFreeOnTorus: the snake embedding maps each hop onto a
// distinct physical link, including the wrap-around closure.
func TestContentionFreeOnTorus(t *testing.T) {
	for _, topo := range []*topology.Topology{
		topology.Torus(4, 4, cfg()),
		topology.Torus(8, 8, cfg()),
		topology.Mesh(4, 4, cfg()),
	} {
		a := collective.Analyze(ring.Build(topo, 4096))
		if !a.ContentionFree() {
			t.Errorf("%s: ring not contention-free (overlap %d)", topo.Name(), a.MaxLinkOverlap)
		}
	}
}

// TestPerNodeInjectionBalanced: every node injects exactly 2(N-1)/N * S.
func TestPerNodeInjectionBalanced(t *testing.T) {
	topo := topology.Torus(4, 4, cfg())
	s := ring.Build(topo, 1600)
	per := make([]int64, topo.Nodes())
	for i := range s.Transfers {
		per[s.Transfers[i].Src] += s.Bytes(&s.Transfers[i])
	}
	for n, b := range per {
		if b != per[0] {
			t.Fatalf("node %d injects %d bytes, node 0 injects %d", n, b, per[0])
		}
	}
}

// TestCorrectnessProperty checks the all-reduce semantics over random
// sizes via testing/quick.
func TestCorrectnessProperty(t *testing.T) {
	topo := topology.Mesh(3, 3, cfg())
	f := func(e uint16) bool {
		elems := 1 + int(e)%5000
		s := ring.Build(topo, elems)
		return collective.VerifyAllReduce(s, collective.RampInputs(topo.Nodes(), elems)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestRingOrderUsed: transfers connect consecutive nodes of the topology's
// ring embedding.
func TestRingOrderUsed(t *testing.T) {
	topo := topology.Torus(4, 4, cfg())
	order := topo.RingOrder()
	nextOf := map[topology.NodeID]topology.NodeID{}
	for i, n := range order {
		nextOf[n] = order[(i+1)%len(order)]
	}
	s := ring.Build(topo, 1600)
	for i := range s.Transfers {
		tr := &s.Transfers[i]
		if nextOf[tr.Src] != tr.Dst {
			t.Fatalf("transfer %d: %d->%d not a ring hop", i, tr.Src, tr.Dst)
		}
	}
}

func TestTwoNodeRing(t *testing.T) {
	c := topology.NewCustom("pair", 2, 0)
	c.Link(0, 1, cfg())
	topo, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := ring.Build(topo, 100)
	if err := collective.VerifyAllReduce(s, collective.RampInputs(2, 100)); err != nil {
		t.Fatal(err)
	}
}
