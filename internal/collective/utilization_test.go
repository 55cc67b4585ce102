package collective_test

import (
	"strings"
	"testing"

	"multitree/internal/collective"
	"multitree/internal/core"
	"multitree/internal/ring"
	"multitree/internal/topology"
)

// TestRingUtilization25Percent pins the paper's §I motivation verbatim:
// ring all-reduce achieves "only 25% link utilization rate in a 4x4 2D
// Torus".
func TestRingUtilization25Percent(t *testing.T) {
	topo := topology.Torus(4, 4, topology.DefaultLinkConfig())
	s := ring.Build(topo, 4096)
	u := collective.StepUtilization(s)
	for step := 1; step < len(u); step++ {
		if u[step] != 0.25 {
			t.Fatalf("ring step %d uses %.0f%% of links, want 25%%", step, 100*u[step])
		}
	}
	if m := collective.MeanUtilization(s); m != 0.25 {
		t.Errorf("mean utilization %.2f, want 0.25", m)
	}
}

// TestMultiTreeUtilizationHigh: MultiTree's middle steps saturate the
// torus links, tripling ring's mean utilization.
func TestMultiTreeUtilizationHigh(t *testing.T) {
	topo := topology.Torus(4, 4, topology.DefaultLinkConfig())
	s, err := core.Build(topo, 4096, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	u := collective.StepUtilization(s)
	saturated := 0
	for step := 1; step < len(u); step++ {
		if u[step] == 1.0 {
			saturated++
		}
	}
	if saturated == 0 {
		t.Error("no fully utilized step in the MultiTree schedule")
	}
	if m := collective.MeanUtilization(s); m < 0.6 {
		t.Errorf("mean utilization %.2f, want >= 0.6", m)
	}
}

func TestUtilizationChartRenders(t *testing.T) {
	topo := topology.Torus(4, 4, topology.DefaultLinkConfig())
	s := ring.Build(topo, 4096)
	chart := collective.UtilizationChart(s, 40)
	if !strings.Contains(chart, "25%") || !strings.Contains(chart, "step") {
		t.Errorf("chart rendering unexpected:\n%s", chart)
	}
}

// TestUtilizationChartGolden pins the full schedule-dump -util charts:
// ring and MultiTree (the tool's default-option trees) on torus-4x4 at
// 64 elements per node, 50 columns wide.
func TestUtilizationChartGolden(t *testing.T) {
	topo := topology.Torus(4, 4, topology.DefaultLinkConfig())
	elems := topo.Nodes() * 64
	trees, err := core.BuildTrees(topo, core.DefaultOptions(topo))
	if err != nil {
		t.Fatal(err)
	}
	mt, err := collective.TreesToSchedule(core.Algorithm, topo, elems, trees)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		s    *collective.Schedule
		want string
	}{
		{ring.Build(topo, elems), ringChartTorus4x4},
		{mt, multiTreeChartTorus4x4},
	} {
		if got := collective.UtilizationChart(c.s, 50); got != c.want {
			t.Errorf("%s chart changed:\n%s\nwant:\n%s", c.s.Algorithm, got, c.want)
		}
	}
}

const ringChartTorus4x4 = `ring on torus-4x4: link utilization per step (mean 25%)
step   1 |#############                                     |  25%
step   2 |#############                                     |  25%
step   3 |#############                                     |  25%
step   4 |#############                                     |  25%
step   5 |#############                                     |  25%
step   6 |#############                                     |  25%
step   7 |#############                                     |  25%
step   8 |#############                                     |  25%
step   9 |#############                                     |  25%
step  10 |#############                                     |  25%
step  11 |#############                                     |  25%
step  12 |#############                                     |  25%
step  13 |#############                                     |  25%
step  14 |#############                                     |  25%
step  15 |#############                                     |  25%
step  16 |#############                                     |  25%
step  17 |#############                                     |  25%
step  18 |#############                                     |  25%
step  19 |#############                                     |  25%
step  20 |#############                                     |  25%
step  21 |#############                                     |  25%
step  22 |#############                                     |  25%
step  23 |#############                                     |  25%
step  24 |#############                                     |  25%
step  25 |#############                                     |  25%
step  26 |#############                                     |  25%
step  27 |#############                                     |  25%
step  28 |#############                                     |  25%
step  29 |#############                                     |  25%
step  30 |#############                                     |  25%
`

const multiTreeChartTorus4x4 = `multitree on torus-4x4: link utilization per step (mean 75%)
step   1 |#############                                     |  25%
step   2 |######################################            |  75%
step   3 |######################################            |  75%
step   4 |##################################################| 100%
step   5 |##################################################| 100%
step   6 |##################################################| 100%
step   7 |##################################################| 100%
step   8 |######################################            |  75%
step   9 |######################################            |  75%
step  10 |#############                                     |  25%
`
