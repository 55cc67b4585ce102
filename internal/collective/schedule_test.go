package collective

import (
	"testing"
	"testing/quick"

	"multitree/internal/topology"
)

func testTopo() *topology.Topology {
	return topology.Mesh(2, 2, topology.DefaultLinkConfig())
}

// TestPartitionProperties: parts cover [0, elems) contiguously, lengths
// differ by at most one.
func TestPartitionProperties(t *testing.T) {
	f := func(e uint16, p uint8) bool {
		elems := int(e)
		parts := 1 + int(p)%64
		rs := Partition(elems, parts)
		if len(rs) != parts {
			return false
		}
		off, min, max := 0, 1<<30, 0
		for _, r := range rs {
			if r.Off != off || r.Len < 0 {
				return false
			}
			off += r.Len
			if r.Len < min {
				min = r.Len
			}
			if r.Len > max {
				max = r.Len
			}
		}
		return off == elems && max-min <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPartitionPanicsOnZeroParts(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Partition(10, 0) did not panic")
		}
	}()
	Partition(10, 0)
}

func TestValidateCatchesSelfTransfer(t *testing.T) {
	s := NewSchedule("bad", testTopo(), 100, 1)
	s.Add(Transfer{Src: 1, Dst: 1, Op: Reduce, Flow: 0, Step: 1}, nil, nil)
	if err := s.Validate(); err == nil {
		t.Error("self-transfer passed validation")
	}
}

func TestValidateCatchesBadFlow(t *testing.T) {
	s := NewSchedule("bad", testTopo(), 100, 1)
	s.Add(Transfer{Src: 0, Dst: 1, Op: Reduce, Flow: 5, Step: 1}, nil, nil)
	if err := s.Validate(); err == nil {
		t.Error("out-of-range flow passed validation")
	}
}

func TestValidateCatchesBadStep(t *testing.T) {
	s := NewSchedule("bad", testTopo(), 100, 1)
	s.Add(Transfer{Src: 0, Dst: 1, Op: Reduce, Flow: 0, Step: 0}, nil, nil)
	if err := s.Validate(); err == nil {
		t.Error("step 0 passed validation")
	}
}

func TestTopoOrderDetectsCycle(t *testing.T) {
	s := NewSchedule("cyclic", testTopo(), 100, 1)
	// a depends forward on b, which depends on a.
	a := s.Add(Transfer{Src: 0, Dst: 1, Op: Reduce, Flow: 0, Step: 1}, []TransferID{1}, nil)
	s.Add(Transfer{Src: 1, Dst: 2, Op: Reduce, Flow: 0, Step: 2}, []TransferID{a}, nil)
	if _, err := s.TopoOrder(); err == nil {
		t.Error("cycle not detected")
	}
	if err := s.Validate(); err == nil {
		t.Error("Validate missed the cycle")
	}
}

func TestTopoOrderRespectsDeps(t *testing.T) {
	s := NewSchedule("chain", testTopo(), 100, 1)
	var prev TransferID = -1
	for i := 0; i < 5; i++ {
		var deps []TransferID
		if prev >= 0 {
			deps = []TransferID{prev}
		}
		prev = s.Add(Transfer{Src: topology.NodeID(i % 2), Dst: topology.NodeID(1 - i%2),
			Op: Reduce, Flow: 0, Step: int32(i + 1)}, deps, nil)
	}
	order, err := s.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[TransferID]int)
	for i, id := range order {
		pos[id] = i
	}
	for i := range s.Transfers {
		for _, d := range s.Deps(i) {
			if pos[d] >= pos[TransferID(i)] {
				t.Fatalf("dep %d ordered after %d", d, i)
			}
		}
	}
}

// TestTopoOrderIdentityFastPath pins the all-backward-deps shortcut:
// planner-built schedules (deps always reference earlier ids) must come
// back in identity order — which is what min-id Kahn produces for that
// shape — while a single forward dep routes through the general
// algorithm and still yields its min-id order.
func TestTopoOrderIdentityFastPath(t *testing.T) {
	s := NewSchedule("backward", testTopo(), 100, 1)
	var prev TransferID = -1
	for i := 0; i < 6; i++ {
		var deps []TransferID
		if prev >= 0 {
			deps = []TransferID{prev}
		}
		prev = s.Add(Transfer{Src: topology.NodeID(i % 2), Dst: topology.NodeID(1 - i%2),
			Op: Reduce, Flow: 0, Step: int32(i + 1)}, deps, nil)
	}
	order, err := s.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range order {
		if int(id) != i {
			t.Fatalf("backward-dep schedule ordered %v, want identity", order)
		}
	}

	// 1 depends forward on 2: min-id Kahn emits 0, 2, 1, 3.
	f := NewSchedule("forward", testTopo(), 100, 1)
	f.Add(Transfer{Src: 0, Dst: 1, Op: Reduce, Flow: 0, Step: 1}, nil, nil)
	f.Add(Transfer{Src: 1, Dst: 2, Op: Reduce, Flow: 0, Step: 2}, []TransferID{2}, nil)
	f.Add(Transfer{Src: 2, Dst: 1, Op: Reduce, Flow: 0, Step: 1}, nil, nil)
	f.Add(Transfer{Src: 1, Dst: 0, Op: Reduce, Flow: 0, Step: 3}, []TransferID{1}, nil)
	order, err = f.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	want := []TransferID{0, 2, 1, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("forward-dep schedule ordered %v, want %v", order, want)
		}
	}
}

func TestTotalBytesAndPerNode(t *testing.T) {
	s := NewSchedule("unit", testTopo(), 1000, 4)
	s.Add(Transfer{Src: 0, Dst: 1, Op: Gather, Flow: 0, Step: 1}, nil, nil)
	s.Add(Transfer{Src: 0, Dst: 2, Op: Gather, Flow: 1, Step: 1}, nil, nil)
	want := s.Flows[0].Bytes() + s.Flows[1].Bytes()
	if got := s.TotalBytes(); got != want {
		t.Errorf("TotalBytes = %d, want %d", got, want)
	}
	per := make([]int64, s.Topo.Nodes())
	for i := range s.Transfers {
		per[s.Transfers[i].Src] += s.Bytes(&s.Transfers[i])
	}
	if per[0] != want || per[1] != 0 {
		t.Errorf("per-node injected bytes = %v", per)
	}
}

func TestAnalyzeContention(t *testing.T) {
	// Two same-step transfers forced over the same link.
	topo := testTopo()
	s := NewSchedule("contended", topo, 1000, 2)
	path := topo.Route(0, 1)
	s.Add(Transfer{Src: 0, Dst: 1, Op: Gather, Flow: 0, Step: 1}, nil, path)
	s.Add(Transfer{Src: 0, Dst: 1, Op: Gather, Flow: 1, Step: 1}, nil, path)
	a := Analyze(s)
	if a.MaxLinkOverlap != 2 || a.ContentionFree() {
		t.Errorf("contended schedule analyzed as %+v", a)
	}
	// Different steps: no same-step overlap.
	s2 := NewSchedule("ok", topo, 1000, 2)
	s2.Add(Transfer{Src: 0, Dst: 1, Op: Gather, Flow: 0, Step: 1}, nil, path)
	s2.Add(Transfer{Src: 0, Dst: 1, Op: Gather, Flow: 1, Step: 2}, nil, path)
	if a2 := Analyze(s2); !a2.ContentionFree() {
		t.Errorf("step-separated schedule flagged contended: %+v", a2)
	}
}

func TestExecuteRejectsBadInputs(t *testing.T) {
	s := NewSchedule("unit", testTopo(), 100, 1)
	if _, err := Execute(s, make([][]float32, 3)); err == nil {
		t.Error("wrong node count accepted")
	}
	in := RampInputs(4, 99)
	if _, err := Execute(s, in); err == nil {
		t.Error("wrong vector length accepted")
	}
}

// TestExecuteGatherOverwrites pins the op semantics.
func TestExecuteGatherOverwrites(t *testing.T) {
	s := NewSchedule("unit", testTopo(), 4, 1)
	s.Add(Transfer{Src: 0, Dst: 1, Op: Gather, Flow: 0, Step: 1}, nil, nil)
	in := [][]float32{{1, 1, 1, 1}, {2, 2, 2, 2}, {3, 3, 3, 3}, {4, 4, 4, 4}}
	out, err := Execute(s, in)
	if err != nil {
		t.Fatal(err)
	}
	if out[1][0] != 1 {
		t.Errorf("gather did not overwrite: %v", out[1])
	}
	if out[0][0] != 1 || out[2][0] != 3 {
		t.Errorf("unrelated buffers changed: %v %v", out[0], out[2])
	}
}

func TestExecuteReduceAdds(t *testing.T) {
	s := NewSchedule("unit", testTopo(), 4, 1)
	s.Add(Transfer{Src: 0, Dst: 1, Op: Reduce, Flow: 0, Step: 1}, nil, nil)
	in := [][]float32{{1, 1, 1, 1}, {2, 2, 2, 2}, {3, 3, 3, 3}, {4, 4, 4, 4}}
	out, err := Execute(s, in)
	if err != nil {
		t.Fatal(err)
	}
	if out[1][0] != 3 {
		t.Errorf("reduce did not add: %v", out[1])
	}
}
