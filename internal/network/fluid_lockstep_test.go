package network_test

// Lockstep bookkeeping of the fluid engine, on schedules built by the
// planners: the incremental registers and the step-gate release index
// checked against from-scratch recomputes; and, in both engines, the
// gate-test count bounded so per-event rescans cannot come back and the
// ready and delivered events pinned at one per transfer.

import (
	"testing"

	"multitree/internal/algorithms"
	"multitree/internal/collective"
	"multitree/internal/core"
	"multitree/internal/dbtree"
	"multitree/internal/faults"
	"multitree/internal/network"
	"multitree/internal/obs"
	"multitree/internal/ring"
	"multitree/internal/ring2d"
	"multitree/internal/topospec"
)

// TestFluidRegisterConsistency drives the incremental cnt/shared
// bookkeeping and the parked-transfer index through adversarial
// activate/retire orders — contended lockstep schedules where step
// priority pins flows at rate 0, free-running ones, lockstep pipelines
// with staggered retirement and gates opening mid-pass, and fault plans
// that degrade or kill links mid-run — asserting after every event batch
// that both match a from-scratch recompute, and under lockstep that
// exactly the flows sharing a link with an earlier step wait at rate 0.
func TestFluidRegisterConsistency(t *testing.T) {
	topo := torus4x4()
	const elems = (64 << 10) / collective.WordSize
	schedules := map[string]*collective.Schedule{
		"ring": ring.Build(topo, elems),
		// A later-step flow activates first and an earlier-step one
		// joins it on a link: the link's first occupant is not its
		// minimum step.
		"stepPriority": network.StepPrioritySchedule(t),
	}
	var err error
	if schedules["dbtree"], err = dbtree.Build(topo, elems, 4); err != nil {
		t.Fatal(err)
	}
	if schedules["2d-ring"], err = ring2d.Build(topo, elems); err != nil {
		t.Fatal(err)
	}
	if schedules["multitree"], err = core.Build(topo, elems, core.DefaultOptions(topo)); err != nil {
		t.Fatal(err)
	}
	// At 8 elements most transfers carry zero bytes: their injections
	// open step gates inside an activation pass.
	if schedules["multitree-8elems"], err = core.Build(topo, 8, core.DefaultOptions(topo)); err != nil {
		t.Fatal(err)
	}

	for name, s := range schedules {
		t.Run(name+"/lockstep", func(t *testing.T) {
			if stalled := network.RunWithRegisterChecks(t, s, network.DefaultConfig()); stalled {
				t.Fatal("fault-free run stalled")
			}
		})
		t.Run(name+"/freeRunning", func(t *testing.T) {
			cfg := network.DefaultConfig()
			cfg.Lockstep = false
			if stalled := network.RunWithRegisterChecks(t, s, cfg); stalled {
				t.Fatal("fault-free run stalled")
			}
		})
		// Free-running again under message-based flow control, whose
		// wire sizes reorder the retirements.
		t.Run(name+"/noLockstep", func(t *testing.T) {
			cfg := network.MessageConfig()
			cfg.Lockstep = false
			if stalled := network.RunWithRegisterChecks(t, s, cfg); stalled {
				t.Fatal("fault-free run stalled")
			}
		})
	}

	t.Run("ring/bwDegraded", func(t *testing.T) {
		plan, err := faults.ParseSpec("link:0-1:bw=0.25,link:5-6@t=200:bw=0.5")
		if err != nil {
			t.Fatal(err)
		}
		cfg := network.DefaultConfig()
		cfg.Faults = plan
		if stalled := network.RunWithRegisterChecks(t, schedules["ring"], cfg); stalled {
			t.Fatal("bandwidth-degraded run stalled")
		}
	})
	t.Run("ring/linkDown", func(t *testing.T) {
		plan, err := faults.ParseSpec("link:0-1@t=100:down")
		if err != nil {
			t.Fatal(err)
		}
		cfg := network.DefaultConfig()
		cfg.Faults = plan
		if stalled := network.RunWithRegisterChecks(t, schedules["ring"], cfg); !stalled {
			t.Fatal("run across a dead link should stall with flows pinned at rate 0")
		}
	})
}

// TestGateChecksLinear bounds the step-gate tests of a lockstep run at
// one per transfer in both engines: the gate is tested once, when the
// transfer becomes ready, and a step entry releases the transfers parked
// behind it without testing them again. An engine that re-tests every
// gated ready transfer on every event makes 171 tests per transfer on the
// fluid mesh-16x16 run, and one that re-releases a node's whole parked
// list on each step entry makes 5 per transfer on the packet torus-8x8
// run and 14 on the bigraph-32 one, so this guards both without timing
// anything.
func TestGateChecksLinear(t *testing.T) {
	build := func(spec, alg string, bytes int) *collective.Schedule {
		t.Helper()
		topo, err := topospec.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		s, err := algorithms.Build(topo, alg, bytes/collective.WordSize, algorithms.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	mt := build("mesh-16x16", "multitree", 256<<10)
	db := build("torus-8x8", "dbtree", 64<<10)
	bg := build("bigraph-32", "multitree", 64<<10)
	for _, c := range []struct {
		eng, name string
		s         *collective.Schedule
		cfg       network.Config
	}{
		{"fluid", "mesh-16x16/multitree-msg", mt, network.MessageConfig()},
		{"fluid", "torus-8x8/dbtree", db, network.DefaultConfig()},
		{"packet", "torus-8x8/dbtree", db, network.DefaultConfig()},
		{"packet", "bigraph-32/multitree", bg, network.DefaultConfig()},
	} {
		t.Run(c.eng+"/"+c.name, func(t *testing.T) {
			var checks int
			if c.eng == "fluid" {
				fs, err := network.NewFluidSim(c.s, c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := fs.Run(); err != nil {
					t.Fatal(err)
				}
				checks = network.GateChecks(fs)
			} else {
				ps, err := network.NewPacketSim(c.s, c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := ps.Run(); err != nil {
					t.Fatal(err)
				}
				checks = network.PacketGateChecks(ps)
			}
			if n := len(c.s.Transfers); checks == 0 || checks > n {
				t.Errorf("%d step-gate tests for %d transfers, want 1..%d", checks, n, n)
			}
		})
	}
}

// TestTransferEventsOncePerTransfer: on the golden fabrics, for every
// algorithm each supports, both engines emit exactly one
// EvTransferReady and one EvTransferDelivered per transfer, as
// obs.EvTransferReady documents.
func TestTransferEventsOncePerTransfer(t *testing.T) {
	for _, spec := range []string{"torus-4x4", "mesh-4x4", "fattree-16", "bigraph-32"} {
		topo, err := topospec.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range algorithms.Supporting(topo) {
			s, err := algorithms.Build(topo, alg.Name, (64<<10)/collective.WordSize, algorithms.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, eng := range []string{"fluid", "packet"} {
				t.Run(spec+"/"+alg.Name+"/"+eng, func(t *testing.T) {
					rec := &obs.Recorder{}
					cfg := network.DefaultConfig()
					cfg.Tracer = rec
					run := network.SimulateFluid
					if eng == "packet" {
						run = network.SimulatePackets
					}
					if _, err := run(s, cfg); err != nil {
						t.Fatal(err)
					}
					ready := make([]int, len(s.Transfers))
					delivered := make([]int, len(s.Transfers))
					for _, ev := range rec.Events {
						switch ev.Kind {
						case obs.EvTransferReady:
							ready[ev.Transfer]++
						case obs.EvTransferDelivered:
							delivered[ev.Transfer]++
						}
					}
					for id := range s.Transfers {
						if ready[id] != 1 || delivered[id] != 1 {
							t.Fatalf("transfer %d: %d ready and %d delivered events, want 1 each",
								id, ready[id], delivered[id])
						}
					}
				})
			}
		}
	}
}
