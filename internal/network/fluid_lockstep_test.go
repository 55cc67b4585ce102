package network_test

// Lockstep bookkeeping of the fluid engine, on schedules built by the
// planners: the incremental registers and the step-gate release index
// checked against from-scratch recomputes, and the gate-test count
// bounded so per-event rescans cannot come back.

import (
	"testing"

	"multitree/internal/collective"
	"multitree/internal/core"
	"multitree/internal/dbtree"
	"multitree/internal/faults"
	"multitree/internal/network"
	"multitree/internal/ring"
	"multitree/internal/ring2d"
	"multitree/internal/topology"
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

// TestFluidGateChecksLinear bounds the step-gate tests of a lockstep run
// at two per transfer: one when the transfer becomes ready, one when its
// node enters its step. An engine that re-tests every gated ready
// transfer on every event makes 171 per transfer on the mesh-16x16 run
// and 84 on the torus-8x8 one, so this guards the quadratic term without
// timing anything.
func TestFluidGateChecksLinear(t *testing.T) {
	mesh := topology.Mesh(16, 16, topology.DefaultLinkConfig())
	mt, err := core.Build(mesh, (256<<10)/collective.WordSize, core.DefaultOptions(mesh))
	if err != nil {
		t.Fatal(err)
	}
	torus := topology.Torus(8, 8, topology.DefaultLinkConfig())
	db, err := dbtree.Build(torus, (64<<10)/collective.WordSize, dbtree.DefaultPipelineChunks)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		s    *collective.Schedule
		cfg  network.Config
	}{
		{"mesh-16x16/multitree-msg", mt, network.MessageConfig()},
		{"torus-8x8/dbtree", db, network.DefaultConfig()},
	} {
		t.Run(c.name, func(t *testing.T) {
			fs, err := network.NewFluidSim(c.s, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fs.Run(); err != nil {
				t.Fatal(err)
			}
			n, checks := len(c.s.Transfers), network.GateChecks(fs)
			if checks == 0 || checks > 2*n {
				t.Errorf("%d step-gate tests for %d transfers, want 1..%d", checks, n, 2*n)
			}
		})
	}
}
