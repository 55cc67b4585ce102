package collective

import (
	"fmt"
	"strings"

	"multitree/internal/topology"
)

// StepUtilization reports, for each algorithmic step, the fraction of
// directed links the schedule occupies — the quantity behind the paper's
// "only 25% link utilization rate in a 4x4 2D Torus" motivation for ring
// all-reduce, and behind MultiTree's full-utilization claim. Index 0 is
// unused (steps are 1-based).
func StepUtilization(s *Schedule) []float64 {
	links := len(s.Topo.Links())
	if links == 0 || s.Steps == 0 {
		return nil
	}
	used := make([]map[topology.LinkID]bool, s.Steps+1)
	for i := range s.Transfers {
		step := s.Transfers[i].Step
		m := used[step]
		if m == nil {
			m = make(map[topology.LinkID]bool)
			used[step] = m
		}
		for _, l := range s.PathOf(i) {
			m[l] = true
		}
	}
	out := make([]float64, s.Steps+1)
	for step := 1; step <= s.Steps; step++ {
		out[step] = float64(len(used[step])) / float64(links)
	}
	return out
}

// MeanUtilization averages StepUtilization over the schedule's steps.
func MeanUtilization(s *Schedule) float64 { return mean(StepUtilization(s)) }

// mean averages a 1-based per-step series (index 0 unused).
func mean(u []float64) float64 {
	if len(u) <= 1 {
		return 0
	}
	sum := 0.0
	for _, v := range u[1:] {
		sum += v
	}
	return sum / float64(len(u)-1)
}

// UtilizationChart renders StepUtilization as an ASCII bar chart, one row
// per step, width columns at 100%.
func UtilizationChart(s *Schedule, width int) string {
	if width < 10 {
		width = 40
	}
	u := StepUtilization(s)
	var b strings.Builder
	fmt.Fprintf(&b, "%s on %s: link utilization per step (mean %.0f%%)\n",
		s.Algorithm, s.Topo.Name(), 100*mean(u))
	for step := 1; step < len(u); step++ {
		bars := int(u[step]*float64(width) + 0.5)
		fmt.Fprintf(&b, "step %3d |%-*s| %3.0f%%\n",
			step, width, strings.Repeat("#", bars), 100*u[step])
	}
	return b.String()
}
