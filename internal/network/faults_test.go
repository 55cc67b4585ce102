package network_test

import (
	"math"
	"strings"
	"testing"

	"multitree/internal/collective"
	"multitree/internal/faults"
	"multitree/internal/network"
	"multitree/internal/obs"
)

// oneTransfer builds a single 0->1 gather of elems words.
func oneTransfer(elems int) *collective.Schedule {
	s := collective.NewSchedule("unit", torus4x4(), elems, 1)
	s.Add(collective.Transfer{Src: 0, Dst: 1, Op: collective.Gather, Flow: 0, Step: 1}, nil, nil)
	return s
}

func mustPlan(t *testing.T, spec string) *faults.Plan {
	t.Helper()
	p, err := faults.ParseSpec(spec)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", spec, err)
	}
	return p
}

// TestFaultDegradedBandwidth: a straggler cable at half bandwidth doubles
// serialization time in both engines.
func TestFaultDegradedBandwidth(t *testing.T) {
	s := oneTransfer(4096)
	cfg := network.DefaultConfig()
	cfg.Lockstep = false
	cfg.Faults = mustPlan(t, "link:0-1:bw=0.5")
	wire := cfg.WireBytes(4096 * collective.WordSize)
	want := float64(wire)/8 + 150 // 16 GB/s scaled by 0.5, plus latency

	fres, err := network.SimulateFluid(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(fres.Cycles); math.Abs(got-want) > 2 {
		t.Errorf("fluid cycles = %v, want ~%v", got, want)
	}
	// LinkBusy must account at the degraded rate too.
	var busy float64
	for _, b := range fres.LinkBusy {
		busy += float64(b)
	}
	if wantBusy := float64(wire) / 8; math.Abs(busy-wantBusy) > 2 {
		t.Errorf("fluid LinkBusy total = %v, want ~%v", busy, wantBusy)
	}

	pres, err := network.SimulatePackets(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Packet engine rounds per packet; allow one cycle per packet of slack.
	if got := float64(pres.Cycles); math.Abs(got-want) > 64 {
		t.Errorf("packet cycles = %v, want ~%v", got, want)
	}
}

// TestFaultAddedLatency: lat+ faults delay delivery by the added
// propagation time in both engines.
func TestFaultAddedLatency(t *testing.T) {
	s := oneTransfer(4096)
	base := network.DefaultConfig()
	base.Lockstep = false
	faulty := base
	faulty.Faults = mustPlan(t, "link:0-1:lat+100")

	for _, eng := range []struct {
		name string
		run  func(*collective.Schedule, network.Config) (*network.Result, error)
	}{
		{"fluid", network.SimulateFluid},
		{"packet", network.SimulatePackets},
	} {
		r0, err := eng.run(s, base)
		if err != nil {
			t.Fatal(err)
		}
		r1, err := eng.run(s, faulty)
		if err != nil {
			t.Fatal(err)
		}
		if got := int64(r1.Cycles) - int64(r0.Cycles); got != 100 {
			t.Errorf("%s: added latency shifted completion by %d cycles, want 100", eng.name, got)
		}
	}
}

// TestFaultAddedLatencyZeroByte: a zero-byte transfer still crosses its
// path, so a lat+ fault delays its delivery in both engines.
func TestFaultAddedLatencyZeroByte(t *testing.T) {
	s := collective.NewSchedule("unit", torus4x4(), 1, 2) // flow 1 gets zero elems
	s.Add(collective.Transfer{Src: 0, Dst: 1, Op: collective.Gather, Flow: 1, Step: 1}, nil, nil)
	if s.Bytes(&s.Transfers[0]) != 0 {
		t.Fatal("test needs a zero-byte transfer")
	}
	base := network.DefaultConfig()
	base.Lockstep = false
	faulty := base
	faulty.Faults = mustPlan(t, "link:0-1:lat+100")

	for _, eng := range []struct {
		name string
		run  func(*collective.Schedule, network.Config) (*network.Result, error)
	}{
		{"fluid", network.SimulateFluid},
		{"packet", network.SimulatePackets},
	} {
		r0, err := eng.run(s, base)
		if err != nil {
			t.Fatal(err)
		}
		r1, err := eng.run(s, faulty)
		if err != nil {
			t.Fatal(err)
		}
		if got := int64(r1.Cycles) - int64(r0.Cycles); got != 100 {
			t.Errorf("%s: added latency shifted a zero-byte delivery by %d cycles, want 100", eng.name, got)
		}
	}
}

// TestFaultLinkDownStalls: a transfer that must cross a dead link stalls
// both engines with a descriptive error naming the transfer and link.
func TestFaultLinkDownStalls(t *testing.T) {
	s := oneTransfer(4096)
	cfg := network.DefaultConfig()
	cfg.Lockstep = false
	cfg.Faults = mustPlan(t, "link:0-1:down")

	for _, eng := range []struct {
		name string
		run  func(*collective.Schedule, network.Config) (*network.Result, error)
	}{
		{"fluid", network.SimulateFluid},
		{"packet", network.SimulatePackets},
	} {
		_, err := eng.run(s, cfg)
		if err == nil {
			t.Fatalf("%s: simulation across a dead link succeeded", eng.name)
		}
		msg := err.Error()
		for _, want := range []string{"stalled", "0/1", "t0", "n0->n1"} {
			if !strings.Contains(msg, want) {
				t.Errorf("%s stall error %q missing %q", eng.name, msg, want)
			}
		}
	}
}

// TestLockstepStallReport: under lockstep, node 0's step-1 transfer is
// stuck behind a dead link, so its dependency-free step-2 transfer stays
// parked. Both engines' stall reports name the closed gate and the step
// the node is stuck at.
func TestLockstepStallReport(t *testing.T) {
	s := collective.NewSchedule("unit", torus4x4(), 4096, 2)
	s.Add(collective.Transfer{Src: 0, Dst: 1, Op: collective.Gather, Flow: 0, Step: 1}, nil, nil)
	s.Add(collective.Transfer{Src: 0, Dst: 4, Op: collective.Gather, Flow: 1, Step: 2}, nil, nil)
	cfg := network.DefaultConfig() // lockstep on
	cfg.Faults = mustPlan(t, "link:0-1:down")

	for _, eng := range []struct {
		name  string
		run   func(*collective.Schedule, network.Config) (*network.Result, error)
		stuck string
	}{
		{"fluid", network.SimulateFluid, "t0 at rate 0 across failed link n0->n1"},
		{"packet", network.SimulatePackets, "stranded at failed link n0->n1"},
	} {
		_, err := eng.run(s, cfg)
		if err == nil {
			t.Fatalf("%s: lockstep run across a dead link succeeded", eng.name)
		}
		msg := err.Error()
		for _, want := range []string{"0/2", eng.stuck, "t1 ready, step 2 gate closed at node 0", "node 0 stuck at step 1"} {
			if !strings.Contains(msg, want) {
				t.Errorf("%s stall error %q missing %q", eng.name, msg, want)
			}
		}
	}
}

// TestFaultMidFlight: a link that dies mid-serialization strands the
// remaining bytes/packets; the fault time is honored (the run does not
// fail before it) and the stall report names the failed link.
func TestFaultMidFlight(t *testing.T) {
	s := oneTransfer(1 << 16) // 256 KiB payload: ~17k cycles of serialization
	cfg := network.DefaultConfig()
	cfg.Lockstep = false
	cfg.Faults = mustPlan(t, "link:0-1@t=5000:down")

	for _, eng := range []struct {
		name string
		run  func(*collective.Schedule, network.Config) (*network.Result, error)
	}{
		{"fluid", network.SimulateFluid},
		{"packet", network.SimulatePackets},
	} {
		_, err := eng.run(s, cfg)
		if err == nil {
			t.Fatalf("%s: mid-flight link death did not stall", eng.name)
		}
		if !strings.Contains(err.Error(), "n0->n1") {
			t.Errorf("%s stall error %q does not name the failed link", eng.name, err)
		}
	}

	// The same fault after the transfer would have finished is harmless.
	late := network.DefaultConfig()
	late.Lockstep = false
	late.Faults = mustPlan(t, "link:0-1@t=9999999:down")
	if _, err := network.SimulateFluid(s, late); err != nil {
		t.Errorf("fluid: post-completion fault failed the run: %v", err)
	}
	if _, err := network.SimulatePackets(s, late); err != nil {
		t.Errorf("packet: post-completion fault failed the run: %v", err)
	}
}

// TestFaultEventEmitted: both engines emit EvLinkFault at the activation
// time with the effective bandwidth scale.
func TestFaultEventEmitted(t *testing.T) {
	s := oneTransfer(4096)
	for _, eng := range []struct {
		name string
		run  func(*collective.Schedule, network.Config) (*network.Result, error)
	}{
		{"fluid", network.SimulateFluid},
		{"packet", network.SimulatePackets},
	} {
		rec := &obs.Recorder{}
		cfg := network.DefaultConfig()
		cfg.Lockstep = false
		cfg.Faults = mustPlan(t, "link:0-1@t=10:bw=0.5")
		cfg.Tracer = rec
		if _, err := eng.run(s, cfg); err != nil {
			t.Fatal(err)
		}
		found := 0
		for _, ev := range rec.Events {
			if ev.Kind == obs.EvLinkFault {
				found++
				if ev.At != 10 || ev.Busy != 0.5 {
					t.Errorf("%s: EvLinkFault at=%v busy=%v, want 10/0.5", eng.name, ev.At, ev.Busy)
				}
			}
		}
		if found != 2 { // both directions of the cable
			t.Errorf("%s: %d EvLinkFault events, want 2", eng.name, found)
		}
	}
}

// TestFaultPlanValidated: plans referencing absent cables are rejected up
// front by both engines.
func TestFaultPlanValidated(t *testing.T) {
	s := oneTransfer(16)
	cfg := network.DefaultConfig()
	cfg.Faults = &faults.Plan{Links: []faults.LinkFault{{A: 0, B: 5, Down: true}}}
	if _, err := network.SimulateFluid(s, cfg); err == nil {
		t.Error("fluid accepted a fault on an absent cable")
	}
	if _, err := network.SimulatePackets(s, cfg); err == nil {
		t.Error("packet accepted a fault on an absent cable")
	}
}

// TestSelfTransferStalls: a transfer routed from a node to itself has an
// empty path and no link to carry it, so an unvalidated schedule holding
// one stalls the fluid engine with the flow pinned at rate 0, however
// idle the rest of the fabric is.
func TestSelfTransferStalls(t *testing.T) {
	s := collective.NewSchedule("unit", torus4x4(), 4096, 2)
	s.Add(collective.Transfer{Src: 0, Dst: 1, Op: collective.Gather, Flow: 0, Step: 1}, nil, nil)
	s.Add(collective.Transfer{Src: 1, Dst: 1, Op: collective.Gather, Flow: 1, Step: 1}, nil, nil)
	const stalled = "network: fluid simulation stalled with 1/2 transfers done (unit on torus-4x4); t1 at rate 0"
	for _, c := range []struct {
		lockstep bool
		want     string
	}{
		{true, stalled + "; node 1 stuck at step 1"},
		{false, stalled},
	} {
		cfg := network.DefaultConfig()
		cfg.Lockstep = c.lockstep
		_, err := network.SimulateFluid(s, cfg)
		if err == nil {
			t.Fatalf("lockstep=%v: a self-transfer was delivered", c.lockstep)
		}
		if err.Error() != c.want {
			t.Errorf("lockstep=%v: stall error %q, want %q", c.lockstep, err, c.want)
		}
	}
}
