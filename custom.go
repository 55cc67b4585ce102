package multitree

import "multitree/internal/topology"

// TopologyBuilder assembles a user-defined network, the §VII-B case of
// applying MultiTree to general cluster networks whose topology is known
// or probed. Vertices 0..nodes-1 are accelerators; use Switch to address
// switch vertices.
type TopologyBuilder struct {
	b *topology.CustomBuilder
}

// NewCustomTopology starts a topology with the given accelerator and
// switch counts (switches may be zero for a direct network).
func NewCustomTopology(name string, nodes, switches int) *TopologyBuilder {
	return &TopologyBuilder{b: topology.NewCustom(name, nodes, switches)}
}

// Switch returns the vertex id of switch i, for use with Connect.
func (tb *TopologyBuilder) Switch(i int) int { return tb.b.SwitchVertex(i) }

// Connect adds a full-duplex cable between two vertices with Table III
// link parameters.
func (tb *TopologyBuilder) Connect(a, b int) *TopologyBuilder {
	tb.b.Link(a, b, topology.DefaultLinkConfig())
	return tb
}

// Build validates connectivity and returns the topology.
func (tb *TopologyBuilder) Build() (*Topology, error) {
	t, err := tb.b.Build()
	if err != nil {
		return nil, err
	}
	return &Topology{t: t}, nil
}
