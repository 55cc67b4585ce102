package topology

import "fmt"

// CustomBuilder assembles a user-defined direct or indirect topology, the
// §VII-B "general purpose cluster networks or public clouds if the network
// topology is provided or can be probed" case.
type CustomBuilder struct {
	b      *builder
	frozen bool
}

// NewCustom starts a custom topology with the given number of end nodes
// and switches. Switches may be zero for a direct network.
func NewCustom(name string, nodes, switches int) *CustomBuilder {
	if nodes < 1 {
		panic("topology: custom topology needs at least one node")
	}
	class := Direct
	if switches > 0 {
		class = Indirect
	}
	return &CustomBuilder{b: newBuilder(name, class, nodes, switches)}
}

// SwitchVertex converts a switch index to the vertex id to use with Link.
func (c *CustomBuilder) SwitchVertex(s int) int { return c.b.t.SwitchVertex(s) }

// Link adds a full-duplex cable between two vertices.
func (c *CustomBuilder) Link(a, b int, cfg LinkConfig) *CustomBuilder {
	if c.frozen {
		panic("topology: CustomBuilder used after Build")
	}
	if a == b {
		panic("topology: self-link")
	}
	c.b.addDuplex(a, b, cfg)
	return c
}

// DirectedLink adds a single directed link, for asymmetric-bandwidth
// networks.
func (c *CustomBuilder) DirectedLink(src, dst int, cfg LinkConfig) *CustomBuilder {
	if c.frozen {
		panic("topology: CustomBuilder used after Build")
	}
	c.b.addLink(src, dst, cfg)
	return c
}

// Build finalizes the topology. Routing uses per-pair BFS shortest paths
// computed on demand; pass nil to keep that default or supply a custom
// routing function.
func (c *CustomBuilder) Build() (*Topology, error) {
	c.frozen = true
	t := c.b.t
	t.route = bfsRoute
	// Validate reachability between all node pairs, one search per source.
	dist := make([]int32, t.Vertices())
	var queue []int32
	for s := 0; s < t.nodes; s++ {
		queue = t.HopDistances(s, dist, queue)
		for d := 0; d < t.nodes; d++ {
			if dist[d] < 0 {
				return nil, fmt.Errorf(
					"topology %s: node %d cannot reach node %d", t.name, s, d)
			}
		}
	}
	return t, nil
}

// BuildUnchecked finalizes the topology without the all-pairs
// reachability validation. Deliberately-disconnected fabrics are useful
// for fault experiments and for testing how planners report partitions;
// anything routed across a partition simply gets no path, and planners
// are expected to diagnose that themselves.
func (c *CustomBuilder) BuildUnchecked() *Topology {
	c.frozen = true
	t := c.b.t
	t.route = bfsRoute
	return t
}

// bfsRoute finds a shortest hop-count path, deterministically preferring
// lower link ids. In a direct network every node has an integrated router
// and forwards traffic; in a switch-based network only switches forward,
// so paths never relay through a third end node.
func bfsRoute(t *Topology, src, dst NodeID) []LinkID {
	prev := make([]LinkID, t.Vertices())
	for i := range prev {
		prev[i] = -1
	}
	visited := make([]bool, t.Vertices())
	visited[int(src)] = true
	frontier := []int{int(src)}
	for len(frontier) > 0 && !visited[int(dst)] {
		var next []int
		for _, v := range frontier {
			for _, id := range t.out[v] {
				w := t.links[id].Dst
				if visited[w] {
					continue
				}
				if t.class == Indirect && t.IsNode(w) && w != int(dst) {
					continue // NICs do not forward
				}
				visited[w] = true
				prev[w] = id
				next = append(next, w)
			}
		}
		frontier = next
	}
	if !visited[int(dst)] {
		return nil
	}
	var rev []LinkID
	for v := int(dst); v != int(src); v = t.links[prev[v]].Src {
		rev = append(rev, prev[v])
	}
	path := make([]LinkID, len(rev))
	for i, id := range rev {
		path[len(rev)-1-i] = id
	}
	return path
}
