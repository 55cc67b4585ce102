package multitree

import (
	"bytes"
	"testing"

	"multitree/internal/collective"
	"multitree/internal/network"
)

// TestVerifyChecksImportedSchedule: Verify executes an imported schedule
// itself, through narrow, at every size. A file whose first all-gather
// transfer was edited into a reduce still passes strict import
// validation (the DAG, routes and coverage are intact) but no longer
// leaves every node with the sum.
func TestVerifyChecksImportedSchedule(t *testing.T) {
	topo := NewTorus(4, 4)
	for _, size := range []int64{8 << 10, 64 << 10} {
		s, err := BuildSchedule(topo, MultiTree, size)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := collective.Export(&buf, s.s); err != nil {
			t.Fatal(err)
		}
		const gather = `"op": "gather"`
		if !bytes.Contains(buf.Bytes(), []byte(gather)) {
			t.Fatalf("%d B: export has no %s transfer", size, gather)
		}
		tampered := bytes.Replace(buf.Bytes(), []byte(gather), []byte(`"op": "reduce"`), 1)
		imp, err := collective.Import(bytes.NewReader(tampered))
		if err != nil {
			t.Fatalf("%d B: tampered schedule rejected at import: %v", size, err)
		}
		if err := (&Schedule{s: imp}).Verify(); err == nil {
			t.Errorf("%d B: Verify accepted a schedule whose all-gather reduces", size)
		}
	}
}

// TestSimulateBothEngines: Simulate's fluid result is plausible and
// within 15% of the packet engine on the same schedule.
func TestSimulateBothEngines(t *testing.T) {
	topo := NewTorus(4, 4)
	s, err := BuildSchedule(topo, MultiTree, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	fluid, err := s.Simulate(SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fluid.Cycles == 0 || fluid.BandwidthGBps <= 0 || fluid.WireBytes <= fluid.PayloadBytes {
		t.Errorf("implausible result %+v", fluid)
	}
	packet, err := network.SimulatePackets(s.s, network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rel := float64(fluid.Cycles) / float64(packet.Cycles)
	if rel < 0.85 || rel > 1.15 {
		t.Errorf("engines disagree: fluid %d vs packet %d cycles", fluid.Cycles, packet.Cycles)
	}
}
