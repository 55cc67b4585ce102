package multitree_test

import (
	"testing"

	multitree "multitree"
)

func TestPublicReduceScatterAllGather(t *testing.T) {
	topo := multitree.NewTorus(4, 4)
	rs, err := multitree.BuildReduceScatter(topo, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	ag, err := multitree.BuildAllGather(topo, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	ar, err := multitree.BuildSchedule(topo, multitree.MultiTree, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Transfers()+ag.Transfers() != ar.Transfers() {
		t.Errorf("rs (%d) + ag (%d) transfers != all-reduce (%d)",
			rs.Transfers(), ag.Transfers(), ar.Transfers())
	}
	for name, s := range map[string]*multitree.Schedule{"rs": rs, "ag": ag} {
		if !s.ContentionFree() {
			t.Errorf("%s contends", name)
		}
		res, err := s.Simulate(multitree.SimOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Cycles == 0 {
			t.Errorf("%s took zero cycles", name)
		}
	}
	// Each phase moves half the all-reduce traffic, so it finishes faster.
	rsRes, _ := rs.Simulate(multitree.SimOptions{})
	arRes, _ := ar.Simulate(multitree.SimOptions{})
	if rsRes.Cycles >= arRes.Cycles {
		t.Errorf("reduce-scatter (%d cycles) not faster than all-reduce (%d)", rsRes.Cycles, arRes.Cycles)
	}
}

// fatTree builds a 16-node two-level fat tree (4 leaf switches of 4
// nodes, each cabled to all 4 spines) with the custom builder.
func fatTree(t *testing.T) *multitree.Topology {
	t.Helper()
	b := multitree.NewCustomTopology("fattree-16", 16, 8)
	for n := 0; n < 16; n++ {
		b.Connect(n, b.Switch(n/4))
	}
	for leaf := 0; leaf < 4; leaf++ {
		for spine := 4; spine < 8; spine++ {
			b.Connect(b.Switch(leaf), b.Switch(spine))
		}
	}
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestPublicAllToAll(t *testing.T) {
	topo := fatTree(t)
	s, err := multitree.BuildAllToAll(topo, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Simulate(multitree.SimOptions{MessageBased: true})
	if err != nil {
		t.Fatal(err)
	}
	// All-to-all moves N*(N-1) personalized messages; each crosses at
	// least one tree edge, and forwarded messages cross several.
	n := int64(topo.Nodes())
	if res.PayloadBytes < n*(n-1)*(64<<10) {
		t.Errorf("payload %d bytes, want >= %d", res.PayloadBytes, n*(n-1)*(64<<10))
	}
}

func TestCollectivesRejectTinySizes(t *testing.T) {
	topo := multitree.NewTorus(4, 4)
	if _, err := multitree.BuildAllToAll(topo, 2); err == nil {
		t.Error("sub-element message accepted")
	}
	if _, err := multitree.BuildReduceScatter(topo, 0); err == nil {
		t.Error("zero-size reduce-scatter accepted")
	}
}

func TestPublicSubsetAllReduce(t *testing.T) {
	topo := multitree.NewTorus(4, 4)
	s, err := multitree.BuildSubsetAllReduce(topo, []int{0, 2, 8, 10}, 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	if !s.ContentionFree() {
		t.Error("subset schedule contends")
	}
	res, err := s.Simulate(multitree.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Error("subset all-reduce took zero cycles")
	}
	if _, err := multitree.BuildSubsetAllReduce(topo, []int{5}, 1024); err == nil {
		t.Error("single-member subset accepted")
	}
}

func TestPublicEnergyEstimate(t *testing.T) {
	topo := multitree.NewTorus(4, 4)
	s, err := multitree.BuildSchedule(topo, multitree.MultiTree, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := s.EstimateEnergy(multitree.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	msg, err := s.EstimateEnergy(multitree.SimOptions{MessageBased: true})
	if err != nil {
		t.Fatal(err)
	}
	if msg.TotalMicrojoules >= pkt.TotalMicrojoules {
		t.Errorf("message-based energy %.1f uJ not below packet-based %.1f uJ",
			msg.TotalMicrojoules, pkt.TotalMicrojoules)
	}
	if msg.PacketEvents >= pkt.PacketEvents/10 {
		t.Errorf("arbitration events %d vs %d: expected order-of-magnitude cut",
			msg.PacketEvents, pkt.PacketEvents)
	}
}

// TestVerifyChecksBuiltCollective: Verify checks the semantics of the
// collective each facade builder produced — a subset all-reduce over its
// members, a reduce-scatter, an all-gather, an all-to-all — not an
// all-reduce over every node.
func TestVerifyChecksBuiltCollective(t *testing.T) {
	for _, topo := range []*multitree.Topology{multitree.NewTorus(4, 4), fatTree(t)} {
		builds := []struct {
			name  string
			build func() (*multitree.Schedule, error)
		}{
			{"all-reduce", func() (*multitree.Schedule, error) {
				return multitree.BuildSchedule(topo, multitree.MultiTree, 128<<10)
			}},
			{"subset", func() (*multitree.Schedule, error) {
				return multitree.BuildSubsetAllReduce(topo, []int{0, 2, 8, 10}, 128<<10)
			}},
			{"reduce-scatter", func() (*multitree.Schedule, error) { return multitree.BuildReduceScatter(topo, 128<<10) }},
			{"all-gather", func() (*multitree.Schedule, error) { return multitree.BuildAllGather(topo, 128<<10) }},
			{"all-to-all", func() (*multitree.Schedule, error) { return multitree.BuildAllToAll(topo, 1<<10) }},
		}
		for _, b := range builds {
			s, err := b.build()
			if err != nil {
				t.Fatalf("%s %s: %v", topo.Name(), b.name, err)
			}
			if err := s.Verify(); err != nil {
				t.Errorf("%s %s: %v", topo.Name(), b.name, err)
			}
		}
	}
}
