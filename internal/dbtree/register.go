package dbtree

import (
	"multitree/internal/algorithms"
	"multitree/internal/collective"
	"multitree/internal/topology"
)

// Self-registration in the central algorithm registry: the double binary
// tree is topology-oblivious and needs only >= 2 nodes.
func init() {
	algorithms.Register(algorithms.Spec{
		Name:  Algorithm,
		Order: 20,
		Note:  "NCCL-style double binary tree, any topology with >= 2 nodes",
		Build: func(topo *topology.Topology, elems int, opts algorithms.Options) (*collective.Schedule, error) {
			return Build(topo, elems, DefaultPipelineChunks)
		},
		Supports: func(topo *topology.Topology) bool { return topo.Nodes() >= 2 },
	})
}
