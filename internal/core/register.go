package core

import (
	"multitree/internal/algorithms"
	"multitree/internal/collective"
	"multitree/internal/topology"
)

// Self-registration in the central algorithm registry: MultiTree applies
// to any connected topology with at least two nodes (Algorithm 1 is
// topology-agnostic).
func init() {
	algorithms.Register(algorithms.Spec{
		Name:  Algorithm,
		Order: 50,
		Note:  "the paper's MultiTree, any topology with >= 2 nodes",
		Build: func(topo *topology.Topology, elems int, aopts algorithms.Options) (*collective.Schedule, error) {
			opts := DefaultOptions(topo)
			opts.Observer = aopts.Observer
			opts.Workers = aopts.Workers
			return Build(topo, elems, opts)
		},
		Supports: func(topo *topology.Topology) bool { return topo.Nodes() >= 2 },
	})
}
