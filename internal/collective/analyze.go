package collective

import (
	"fmt"

	"multitree/internal/topology"
)

// Analysis summarizes the static properties of a schedule that Table I of
// the paper compares: algorithmic step count, per-node traffic volume
// relative to the bandwidth-optimal 2(N-1)/N * S, hop counts, and worst
// same-step link contention. Per-step link utilization is
// StepUtilization's.
type Analysis struct {
	Algorithm string
	Topology  string
	Nodes     int

	Steps     int
	Transfers int

	// TotalBytes is payload bytes summed over transfers; OptimalBytes is
	// the bandwidth-optimal network-wide volume N * 2(N-1)/N * S = 2(N-1)S.
	TotalBytes   int64
	OptimalBytes int64

	// MaxHops is the longest routed path of any transfer (1 for
	// direct-network MultiTree by construction).
	MaxHops int

	// MaxLinkOverlap is the largest number of same-step transfers that
	// share one directed link. 1 means contention-free under lockstep
	// scheduling.
	MaxLinkOverlap int
}

// BandwidthOverhead returns TotalBytes / OptimalBytes; 1.0 is
// bandwidth-optimal, 2D-Ring approaches 2.0.
func (a Analysis) BandwidthOverhead() float64 {
	if a.OptimalBytes == 0 {
		return 0
	}
	return float64(a.TotalBytes) / float64(a.OptimalBytes)
}

// ContentionFree reports whether no two same-step transfers share a link.
func (a Analysis) ContentionFree() bool { return a.MaxLinkOverlap <= 1 }

func (a Analysis) String() string {
	return fmt.Sprintf(
		"%s on %s: steps=%d transfers=%d bytes=%.2fx-optimal maxHops=%d maxOverlap=%d",
		a.Algorithm, a.Topology, a.Steps, a.Transfers,
		a.BandwidthOverhead(), a.MaxHops, a.MaxLinkOverlap)
}

// Analyze computes the static schedule properties used by Table I, the
// facade's ContentionFree/BandwidthOverhead and schedule-inspector.
func Analyze(s *Schedule) Analysis {
	a := Analysis{
		Algorithm: s.Algorithm,
		Topology:  s.Topo.Name(),
		Nodes:     s.Topo.Nodes(),
		Steps:     s.Steps,
		Transfers: len(s.Transfers),
	}
	n := int64(s.Topo.Nodes())
	a.TotalBytes = s.TotalBytes()
	a.OptimalBytes = 2 * (n - 1) * int64(s.Elems) * WordSize

	// Per-step link usage.
	type key struct {
		step int
		link topology.LinkID
	}
	usage := make(map[key]int)
	for i := range s.Transfers {
		step := int(s.Transfers[i].Step)
		path := s.PathOf(i)
		if len(path) > a.MaxHops {
			a.MaxHops = len(path)
		}
		for _, l := range path {
			usage[key{step, l}]++
		}
	}
	for _, c := range usage {
		if c > a.MaxLinkOverlap {
			a.MaxLinkOverlap = c
		}
	}
	return a
}
