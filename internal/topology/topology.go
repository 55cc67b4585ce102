// Package topology models the interconnection networks evaluated in the
// paper: 2D Torus, 2D Mesh (direct networks, TPU-pod-like), two-level
// Fat-Tree (DGX-2-like) and BiGraph (EFLOPS), plus 3D meshes and tori,
// Dragonfly and user-defined custom topologies. Every mesh and torus
// comes from one grid builder.
//
// A topology is a directed multigraph over vertices. Vertices 0..N-1 are
// end nodes (accelerators); vertices N..N+S-1 are switches. Direct networks
// have no switch vertices: each accelerator's on-chip router is the node
// vertex itself. Every physical cable is represented by a pair of directed
// links, one per direction, each with its own bandwidth and latency, so
// full-duplex links and heterogeneous-bandwidth multigraphs (§VII-B) fall
// out naturally: a wider link is simply several parallel Link entries.
package topology

import (
	"fmt"
	"sync"

	"multitree/internal/sim"
)

// NodeID identifies an end node (accelerator), 0..N-1.
type NodeID int32

// LinkID indexes a directed link within a Topology.
type LinkID int32

// Link is a directed physical channel between two vertices.
type Link struct {
	ID        LinkID
	Src, Dst  int     // vertex ids
	Bandwidth float64 // bytes per cycle
	Latency   sim.Time
}

// LinkConfig carries the per-link parameters of Table III.
type LinkConfig struct {
	Bandwidth float64  // bytes per cycle (16 GB/s at 1 GHz = 16 B/cycle)
	Latency   sim.Time // cycles (150 ns at 1 GHz = 150 cycles)
}

// DefaultLinkConfig matches Table III of the paper.
func DefaultLinkConfig() LinkConfig {
	return LinkConfig{Bandwidth: 16, Latency: 150}
}

// Class distinguishes direct networks (node routers connected to each
// other) from indirect, switch-based networks.
type Class int

const (
	// Direct means every vertex is an end node with an integrated router.
	Direct Class = iota
	// Indirect means end nodes attach to switches via NIC links.
	Indirect
)

func (c Class) String() string {
	if c == Direct {
		return "direct"
	}
	return "indirect"
}

// Topology is an immutable interconnection network description.
type Topology struct {
	name     string
	class    Class
	nodes    int
	switches int
	links    []Link
	out      [][]LinkID // vertex -> outgoing links, in preference order

	// dims is the grid shape, X first; nil for other fabrics.
	dims []int

	// route computes the link path between two end nodes.
	route func(t *Topology, src, dst NodeID) []LinkID

	// ringOrder is the preferred Hamiltonian embedding for ring-based
	// algorithms; nil means identity order.
	ringOrder []NodeID

	// reverseOf pairs each directed link with its opposite, built lazily.
	reverseOnce sync.Once
	reverseOf   []LinkID
}

// Name returns a human-readable topology name, e.g. "torus-8x8".
func (t *Topology) Name() string { return t.name }

// Class reports whether the network is direct or switch-based.
func (t *Topology) Class() Class { return t.class }

// Nodes returns the number of end nodes (accelerators).
func (t *Topology) Nodes() int { return t.nodes }

// Switches returns the number of switch vertices.
func (t *Topology) Switches() int { return t.switches }

// Vertices returns the total vertex count (nodes + switches).
func (t *Topology) Vertices() int { return t.nodes + t.switches }

// Links returns all directed links. The returned slice must not be
// modified.
func (t *Topology) Links() []Link { return t.links }

// Link returns the link with the given id.
func (t *Topology) Link(id LinkID) Link { return t.links[id] }

// Out returns the outgoing links of a vertex in the topology's preference
// order (Y-dimension first for grids, as Algorithm 1 requires).
func (t *Topology) Out(vertex int) []LinkID { return t.out[vertex] }

// IsNode reports whether a vertex is an end node.
func (t *Topology) IsNode(vertex int) bool { return vertex < t.nodes }

// SwitchVertex converts a switch index (0-based) to its vertex id.
func (t *Topology) SwitchVertex(s int) int { return t.nodes + s }

// GridDims returns (nx, ny) for 2D grid topologies, or (0, 0).
func (t *Topology) GridDims() (nx, ny int) {
	if len(t.dims) != 2 {
		return 0, 0
	}
	return t.dims[0], t.dims[1]
}

// VertexName renders a vertex id for diagnostics: "n3" or "s1".
func (t *Topology) VertexName(v int) string {
	if t.IsNode(v) {
		return fmt.Sprintf("n%d", v)
	}
	return fmt.Sprintf("s%d", v-t.nodes)
}

// Route returns the directed link path from src to dst end nodes using the
// topology's deterministic routing function (dimension-order for grids,
// destination-mod-k up/down for Fat-Tree, layer-crossing for BiGraph).
// It returns nil when src == dst.
func (t *Topology) Route(src, dst NodeID) []LinkID {
	if src == dst {
		return nil
	}
	return t.route(t, src, dst)
}

// RingOrder returns a Hamiltonian ordering of the nodes suitable for
// embedding ring algorithms: a boustrophedon snake for grids and a
// switch-major order for indirect networks.
func (t *Topology) RingOrder() []NodeID {
	if t.ringOrder == nil {
		order := make([]NodeID, t.nodes)
		for i := range order {
			order[i] = NodeID(i)
		}
		return order
	}
	out := make([]NodeID, len(t.ringOrder))
	copy(out, t.ringOrder)
	return out
}

// PathLatency sums the link latencies along a path.
func (t *Topology) PathLatency(path []LinkID) sim.Time {
	var total sim.Time
	for _, id := range path {
		total += t.links[id].Latency
	}
	return total
}

// HopDistances fills dist (length Vertices()) with the hop count of a
// shortest path from vertex src to every vertex, or -1 where none
// exists, by one breadth-first search. It follows the routing relay
// rule: on switch fabrics end nodes do not forward, so nodes other than
// src get a distance but are never expanded; on direct fabrics every
// node's integrated router forwards. queue is scratch of any length; the
// grown queue is returned for reuse.
func (t *Topology) HopDistances(src int, dist []int32, queue []int32) []int32 {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue = append(queue[:0], int32(src))
	for qi := 0; qi < len(queue); qi++ {
		v := int(queue[qi])
		if t.class == Indirect && t.IsNode(v) && v != src {
			continue
		}
		for _, id := range t.out[v] {
			if w := t.links[id].Dst; dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, int32(w))
			}
		}
	}
	return queue
}

// Diameter returns the maximum over node pairs of routed hop count. It is
// O(N^2) and intended for analysis and tests, not inner loops.
func (t *Topology) Diameter() int {
	max := 0
	for s := 0; s < t.nodes; s++ {
		for d := 0; d < t.nodes; d++ {
			if hops := len(t.Route(NodeID(s), NodeID(d))); hops > max {
				max = hops
			}
		}
	}
	return max
}

// builder accumulates links during topology construction.
type builder struct {
	t *Topology
}

func newBuilder(name string, class Class, nodes, switches int) *builder {
	t := &Topology{
		name:     name,
		class:    class,
		nodes:    nodes,
		switches: switches,
		out:      make([][]LinkID, nodes+switches),
	}
	return &builder{t: t}
}

// addLink appends one directed link and returns its id.
func (b *builder) addLink(src, dst int, cfg LinkConfig) LinkID {
	id := LinkID(len(b.t.links))
	b.t.links = append(b.t.links, Link{
		ID: id, Src: src, Dst: dst,
		Bandwidth: cfg.Bandwidth, Latency: cfg.Latency,
	})
	b.t.out[src] = append(b.t.out[src], id)
	return id
}

// addDuplex appends the two directed links of a full-duplex cable.
func (b *builder) addDuplex(a, c int, cfg LinkConfig) {
	b.addLink(a, c, cfg)
	b.addLink(c, a, cfg)
}

// ReverseLink returns the id of a directed link running opposite to l.
// Parallel links between the same vertex pair (multigraph trunks) are
// matched by multiplicity, so reversing two distinct forward links yields
// two distinct reverse links. Every built-in topology adds links in
// full-duplex pairs, so the reverse always exists; a custom topology with
// a one-way link panics here, which indicates the schedule tried to
// reverse an irreversible path.
func (t *Topology) ReverseLink(l Link) LinkID {
	t.reverseOnce.Do(t.buildReverse)
	r := t.reverseOf[l.ID]
	if r < 0 {
		panic(fmt.Sprintf("topology %s: link %s->%s has no reverse",
			t.name, t.VertexName(l.Src), t.VertexName(l.Dst)))
	}
	return r
}

// buildReverse pairs opposite-direction links between each vertex pair in
// order of appearance.
func (t *Topology) buildReverse() {
	t.reverseOf = make([]LinkID, len(t.links))
	for i := range t.reverseOf {
		t.reverseOf[i] = -1
	}
	byPair := map[[2]int][]LinkID{}
	for _, l := range t.links {
		key := [2]int{l.Src, l.Dst}
		byPair[key] = append(byPair[key], l.ID)
	}
	for key, fwd := range byPair {
		bwd := byPair[[2]int{key[1], key[0]}]
		for i, id := range fwd {
			if i < len(bwd) {
				t.reverseOf[id] = bwd[i]
			}
		}
	}
}

// linkBetween finds a directed link src->dst; used by deterministic
// routing functions. Panics if absent, which indicates a routing bug.
func (t *Topology) linkBetween(src, dst int) LinkID {
	for _, id := range t.out[src] {
		if t.links[id].Dst == dst {
			return id
		}
	}
	panic(fmt.Sprintf("topology %s: no link %s->%s",
		t.name, t.VertexName(src), t.VertexName(dst)))
}
