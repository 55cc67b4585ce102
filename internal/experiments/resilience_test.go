package experiments

import (
	"bytes"
	"math"
	"testing"

	"multitree/internal/algorithms"
	"multitree/internal/collective"
	"multitree/internal/core"
	"multitree/internal/faults"
	"multitree/internal/network"
	"multitree/internal/topospec"
)

// TestResilienceRejectsNegativeFailures: a negative -maxfail sweeps no
// failure count, which is an error rather than an empty table.
func TestResilienceRejectsNegativeFailures(t *testing.T) {
	topo, err := topospec.Parse("torus-4x4")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Resilience(topo, -1, 42, 256<<10); err == nil {
		t.Fatal("Resilience accepted maxFailed = -1")
	}
}

// TestResilienceTorus4x4 covers the acceptance sweep: per-algorithm
// completion times under 0, 1 and 2 failed links on torus-4x4, with the
// packet and fluid engines agreeing within the cross-validation
// tolerance (15%, as in TestEnginesAgree).
func TestResilienceTorus4x4(t *testing.T) {
	topo, err := topospec.Parse("torus-4x4")
	if err != nil {
		t.Fatal(err)
	}
	points, err := Resilience(topo, 2, 42, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		failed int
		alg    string
	}
	cycles := map[key]map[string]uint64{}
	supported := map[int]int{}
	for _, p := range points {
		if !p.Supported {
			if p.Note == "" {
				t.Errorf("unsupported row %d/%s/%s has no note", p.FailedLinks, p.Algorithm, p.Engine)
			}
			continue
		}
		if p.Cycles == 0 {
			t.Errorf("supported row %d/%s/%s has zero cycles", p.FailedLinks, p.Algorithm, p.Engine)
		}
		k := key{p.FailedLinks, p.Algorithm}
		if cycles[k] == nil {
			cycles[k] = map[string]uint64{}
			supported[p.FailedLinks]++
		}
		cycles[k][p.Engine] = p.Cycles
	}
	for f := 0; f <= 2; f++ {
		if supported[f] < 2 {
			t.Errorf("only %d algorithms supported at %d failed links; want at least ring and multitree", supported[f], f)
		}
	}
	if _, ok := cycles[key{2, core.Algorithm}]; !ok {
		t.Error("multitree missing from the 2-failure sweep")
	}
	for k, m := range cycles {
		fl, pk := float64(m["fluid"]), float64(m["packet"])
		if fl == 0 || pk == 0 {
			t.Errorf("%d/%s measured on only one engine", k.failed, k.alg)
			continue
		}
		if rel := math.Abs(fl-pk) / pk; rel > 0.15 {
			t.Errorf("%d/%s: fluid %.0f vs packet %.0f cycles, %.1f%% apart (tolerance 15%%)",
				k.failed, k.alg, fl, pk, 100*rel)
		}
	}
}

// TestMultiTreeReplanAvoidsFailedLinks asserts the degraded re-plan
// routes around every failed cable, by walking the exported schedule's
// pinned routes and mapping each hop back to original vertex ids.
func TestMultiTreeReplanAvoidsFailedLinks(t *testing.T) {
	topo, err := topospec.Parse("torus-4x4")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faults.RandomLinkFailures(topo, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	deg, err := faults.Apply(topo, plan)
	if err != nil {
		t.Fatal(err)
	}
	failed := map[[2]int]bool{}
	for _, f := range plan.Links {
		a, b := f.A, f.B
		if a > b {
			a, b = b, a
		}
		failed[[2]int{a, b}] = true
	}

	s, err := algorithms.Build(deg.Topo, core.Algorithm, (256<<10)/4, algorithms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip through the IR so the walk covers the *pinned* routes a
	// consumer would replay, not just the in-memory BFS paths.
	var buf bytes.Buffer
	if err := collective.Export(&buf, s); err != nil {
		t.Fatal(err)
	}
	imported, err := collective.Import(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range imported.Transfers {
		for _, lid := range imported.PathOf(i) {
			lk := imported.Topo.Link(lid)
			a := deg.OrigVertex[lk.Src]
			b := deg.OrigVertex[lk.Dst]
			if a > b {
				a, b = b, a
			}
			if failed[[2]int{a, b}] {
				t.Fatalf("transfer %d routes across failed cable %d-%d (plan %q)", i, a, b, plan)
			}
		}
	}
}

// TestRegistryReplanRoundTrip exercises every registered algorithm
// against a degraded fabric: supported ones must build, export,
// re-import and simulate on both engines without error; unsupported ones
// must be rejected by their Supports predicate, not by a panic or a
// build failure.
func TestRegistryReplanRoundTrip(t *testing.T) {
	topo, err := topospec.Parse("torus-4x4")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faults.ParseSpec("link:0-1:down,link:5-6:bw=0.5")
	if err != nil {
		t.Fatal(err)
	}
	deg, err := faults.Apply(topo, plan)
	if err != nil {
		t.Fatal(err)
	}
	supported := 0
	for _, name := range algorithms.Names() {
		spec, _ := algorithms.Lookup(name)
		t.Run(spec.Name, func(t *testing.T) {
			if !spec.Supports(deg.Topo) {
				t.Logf("%s reports unsupported on the degraded graph (ok)", spec.Name)
				return
			}
			supported++
			s, err := spec.Build(deg.Topo, (64<<10)/4, algorithms.Options{})
			if err != nil {
				t.Fatalf("Supports passed but Build failed: %v", err)
			}
			var buf bytes.Buffer
			if err := collective.Export(&buf, s); err != nil {
				t.Fatal(err)
			}
			rt, err := collective.Import(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			cfg := network.DefaultConfig()
			fres, err := network.SimulateFluid(rt, cfg)
			if err != nil {
				t.Fatalf("fluid on re-imported degraded schedule: %v", err)
			}
			pres, err := network.SimulatePackets(rt, cfg)
			if err != nil {
				t.Fatalf("packet on re-imported degraded schedule: %v", err)
			}
			if fres.Cycles == 0 || pres.Cycles == 0 {
				t.Error("zero-cycle result on degraded schedule")
			}
		})
	}
	if supported < 2 {
		t.Errorf("only %d algorithms supported the degraded torus; expected at least ring and multitree", supported)
	}
}
