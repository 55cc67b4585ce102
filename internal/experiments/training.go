package experiments

import (
	"fmt"
	"strings"

	"multitree/internal/accel"
	"multitree/internal/algorithms"
	"multitree/internal/collective"
	"multitree/internal/core"
	"multitree/internal/model"
	"multitree/internal/network"
	"multitree/internal/topology"
	"multitree/internal/training"
)

// Fig11Row is one bar of the Fig. 11 training-time breakdown, in cycles
// (nanoseconds at 1 GHz).
type Fig11Row struct {
	Model     string
	Algorithm string

	Compute uint64
	Comm    uint64 // total all-reduce busy time
	Exposed uint64 // communication not hidden by compute
	Overlap uint64
	Total   uint64

	// NormalizedTotal and AllReduceSpeedup are relative to Ring on the
	// same model (Fig. 11's primary and secondary axes).
	NormalizedTotal  float64
	AllReduceSpeedup float64
}

// Fig11Algorithms returns the algorithm variants of the training study.
func Fig11Algorithms() []AlgSpec {
	return []AlgSpec{
		{Name: "ring"},
		{Name: "dbtree"},
		{Name: "2d-ring"},
		{Name: core.Algorithm},
		{Name: core.Algorithm + "-msg", Msg: true},
	}
}

// Fig11 simulates one training iteration of every zoo model under every
// algorithm on the topology (the paper uses an 8x8 Torus, batch 16 per
// node). overlapped selects the Fig. 11b layer-wise all-reduce mode.
func Fig11(topo *topology.Topology, overlapped bool) ([]Fig11Row, error) {
	var out []Fig11Row
	for _, net := range model.Zoo() {
		var ringComm, ringTotal float64
		for _, alg := range Fig11Algorithms() {
			cfg := training.Config{
				Topo:         topo,
				Accel:        accel.Default(),
				BatchPerNode: 16,
				Net:          netConfig(alg),
				Build:        ScheduleBuilder(alg.Name),
			}
			var (
				b   training.Breakdown
				err error
			)
			if overlapped {
				b, err = cfg.Overlapped(net)
			} else {
				b, err = cfg.NonOverlapped(net)
			}
			if err != nil {
				return nil, fmt.Errorf("fig11 %s/%s: %w", net.Name, alg.Name, err)
			}
			row := Fig11Row{
				Model:     net.Name,
				Algorithm: alg.Name,
				Compute:   uint64(b.Compute()),
				Comm:      uint64(b.Comm),
				Exposed:   uint64(b.Exposed),
				Overlap:   uint64(b.Overlap),
				Total:     uint64(b.Total),
			}
			if alg.Name == "ring" {
				ringComm = float64(b.Comm)
				ringTotal = float64(b.Total)
			}
			if ringComm > 0 {
				row.AllReduceSpeedup = ringComm / float64(b.Comm)
			}
			if ringTotal > 0 {
				row.NormalizedTotal = float64(b.Total) / ringTotal
			}
			out = append(out, row)
		}
	}
	return out, nil
}

func netConfig(alg AlgSpec) network.Config {
	cfg := network.DefaultConfig()
	cfg.MessageBased = alg.Msg
	return cfg
}

// ScheduleBuilder returns the training loop's builder for the named
// algorithm. MultiTree (with or without "-msg") grows its trees once per
// topology and lowers every layer's size from them — the paper's
// deployment model, where "the schedules are computed once during
// initialization and loaded to network interfaces for reuse in the
// iterative training epochs" (§V-A). Every other algorithm builds each
// layer's schedule through the registry.
func ScheduleBuilder(name string) training.ScheduleBuilder {
	if strings.TrimSuffix(name, algorithms.MsgSuffix) != core.Algorithm {
		return func(topo *topology.Topology, elems int) (*collective.Schedule, error) {
			return algorithms.Build(topo, name, elems, algorithms.Options{})
		}
	}
	cache := map[*topology.Topology][]*collective.Tree{}
	return func(topo *topology.Topology, elems int) (*collective.Schedule, error) {
		trees, ok := cache[topo]
		if !ok {
			var err error
			trees, err = core.BuildTrees(topo, core.DefaultOptions(topo))
			if err != nil {
				return nil, err
			}
			cache[topo] = trees
		}
		return collective.TreesToSchedule(core.Algorithm, topo, elems, trees)
	}
}
