// Package faults models degraded training fabrics: permanent link
// failures, bandwidth-degraded straggler links, per-link added latency,
// and whole-node failures. Real fabrics are not the fault-free ideal of
// the paper's evaluation (§VIII); like TACCL's communication sketches and
// TopoOpt, this package treats the topology as a constrained, changeable
// input so every algorithm can be asked "what happens when the fabric is
// degraded?".
//
// A fault Plan is deterministic and serializable (ParseSpec / String),
// and applies at two layers:
//
//   - Topology layer: Apply produces a degraded topology.Topology view
//     with failed cables and nodes removed and straggler links
//     re-parameterized. The algorithm registry re-plans against the
//     degraded view, so schedules route around dead links by
//     construction; algorithms whose Supports predicate fails on the
//     degraded graph (e.g. 2D-Ring without grid coordinates) report
//     gracefully instead of panicking.
//
//   - Engine layer: Compile lowers a plan onto a concrete topology's
//     link ids for mid-flight degradation inside the network engines
//     (network.Config.Faults). A transfer crossing a link at or after
//     its fault time stalls and the simulation errors with a
//     descriptive report; degraded bandwidth and added latency are
//     honored by both the fluid and packet engines.
package faults

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"multitree/internal/sim"
	"multitree/internal/topology"
)

// LinkFault degrades or kills the full-duplex cable between two vertices
// (all parallel links of a multigraph trunk, both directions — a physical
// cable fails as a unit). Exactly one of Down, BWScale, AddLatency is
// active per fault; compose several faults to stack effects.
type LinkFault struct {
	// A, B are vertex ids (end nodes 0..N-1, switches N..N+S-1).
	A, B int

	// At is the activation time in cycles; 0 means the fault predates the
	// run. The topology layer (Apply) treats every fault as permanent and
	// plans around it regardless of At; the engines honor At mid-flight.
	At sim.Time

	// Down removes the cable entirely.
	Down bool

	// BWScale, when in (0,1), multiplies the cable's bandwidth — a
	// straggler link.
	BWScale float64

	// AddLatency adds propagation delay to the cable.
	AddLatency sim.Time
}

// NodeFault kills a vertex: every incident link fails at At. At the
// topology layer a failed end node is removed from the collective (the
// surviving nodes renumber densely); a failed switch only takes its
// links.
type NodeFault struct {
	Vertex int
	At     sim.Time
}

// Plan is a deterministic, serializable set of fault injections.
type Plan struct {
	Links []LinkFault
	Nodes []NodeFault
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool {
	return p == nil || (len(p.Links) == 0 && len(p.Nodes) == 0)
}

// String renders the plan in the -faults spec grammar, so a plan logs
// and round-trips through ParseSpec.
func (p *Plan) String() string {
	if p.Empty() {
		return ""
	}
	var parts []string
	for _, f := range p.Links {
		t := ""
		if f.At > 0 {
			t = fmt.Sprintf("@t=%d", uint64(f.At))
		}
		switch {
		case f.Down:
			parts = append(parts, fmt.Sprintf("link:%d-%d%s:down", f.A, f.B, t))
		case f.BWScale > 0:
			parts = append(parts, fmt.Sprintf("link:%d-%d%s:bw=%g", f.A, f.B, t, f.BWScale))
		default:
			parts = append(parts, fmt.Sprintf("link:%d-%d%s:lat+%d", f.A, f.B, t, uint64(f.AddLatency)))
		}
	}
	for _, f := range p.Nodes {
		t := ""
		if f.At > 0 {
			t = fmt.Sprintf("@t=%d", uint64(f.At))
		}
		parts = append(parts, fmt.Sprintf("node:%d%s:down", f.Vertex, t))
	}
	return strings.Join(parts, ",")
}

// ParseSpec parses a comma-separated fault spec, e.g.
//
//	link:3-7@t=5000:down,link:0-1:bw=0.5,link:2-3:lat+100,node:12:down
//
// Grammar per clause:
//
//	link:<a>-<b>[@t=<cycles>]:down | bw=<scale> | lat+<cycles>
//	node:<v>[@t=<cycles>]:down
//
// An empty spec parses to an empty plan.
func ParseSpec(spec string) (*Plan, error) {
	p := &Plan{}
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return p, nil
	}
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		kind, rest, ok := strings.Cut(clause, ":")
		if !ok {
			return nil, fmt.Errorf("faults: clause %q is not <kind>:<target>:<effect>", clause)
		}
		target, effect, ok := strings.Cut(rest, ":")
		if !ok {
			return nil, fmt.Errorf("faults: clause %q is missing its effect", clause)
		}
		at, target, err := parseAt(target)
		if err != nil {
			return nil, fmt.Errorf("faults: clause %q: %w", clause, err)
		}
		switch kind {
		case "link":
			as, bs, ok := strings.Cut(target, "-")
			if !ok {
				return nil, fmt.Errorf("faults: clause %q needs a <a>-<b> vertex pair", clause)
			}
			a, err1 := strconv.Atoi(as)
			b, err2 := strconv.Atoi(bs)
			if err1 != nil || err2 != nil || a < 0 || b < 0 || a == b {
				return nil, fmt.Errorf("faults: clause %q has a bad vertex pair %q", clause, target)
			}
			f := LinkFault{A: a, B: b, At: at}
			switch {
			case effect == "down":
				f.Down = true
			case strings.HasPrefix(effect, "bw="):
				scale, err := strconv.ParseFloat(effect[3:], 64)
				// NaN fails every comparison, so the range test alone
				// would accept it, and String would print it as lat+0.
				if err != nil || math.IsNaN(scale) || scale <= 0 || scale >= 1 {
					return nil, fmt.Errorf("faults: clause %q needs bw=<scale> with 0 < scale < 1", clause)
				}
				f.BWScale = scale
			case strings.HasPrefix(effect, "lat+"):
				add, err := strconv.ParseUint(effect[4:], 10, 63)
				if err != nil || add == 0 {
					return nil, fmt.Errorf("faults: clause %q needs lat+<cycles> with cycles > 0", clause)
				}
				f.AddLatency = sim.Time(add)
			default:
				return nil, fmt.Errorf("faults: clause %q has unknown link effect %q (want down, bw=<scale> or lat+<cycles>)", clause, effect)
			}
			p.Links = append(p.Links, f)
		case "node":
			if effect != "down" {
				return nil, fmt.Errorf("faults: clause %q: node faults support only :down", clause)
			}
			v, err := strconv.Atoi(target)
			if err != nil || v < 0 {
				return nil, fmt.Errorf("faults: clause %q has a bad vertex %q", clause, target)
			}
			p.Nodes = append(p.Nodes, NodeFault{Vertex: v, At: at})
		default:
			return nil, fmt.Errorf("faults: unknown fault kind %q in %q (want link or node)", kind, clause)
		}
	}
	return p, nil
}

// parseAt splits an optional @t=<cycles> suffix off a clause target.
func parseAt(target string) (sim.Time, string, error) {
	base, ts, ok := strings.Cut(target, "@")
	if !ok {
		return 0, target, nil
	}
	if !strings.HasPrefix(ts, "t=") {
		return 0, "", fmt.Errorf("bad time suffix %q (want @t=<cycles>)", "@"+ts)
	}
	v, err := strconv.ParseUint(ts[2:], 10, 63)
	if err != nil {
		return 0, "", fmt.Errorf("bad fault time %q", ts[2:])
	}
	return sim.Time(v), base, nil
}

// validate checks every fault against a concrete topology: vertex ids in
// range and, for link faults, at least one directed link between the
// endpoints.
func (p *Plan) validate(topo *topology.Topology) error {
	if p == nil {
		return nil
	}
	v := topo.Vertices()
	for _, f := range p.Links {
		if f.A < 0 || f.A >= v || f.B < 0 || f.B >= v {
			return fmt.Errorf("faults: link fault %d-%d is outside %s (%d vertices)", f.A, f.B, topo.Name(), v)
		}
		if !cableExists(topo, f.A, f.B) {
			return fmt.Errorf("faults: %s has no cable between %s and %s",
				topo.Name(), topo.VertexName(f.A), topo.VertexName(f.B))
		}
	}
	for _, f := range p.Nodes {
		if f.Vertex < 0 || f.Vertex >= v {
			return fmt.Errorf("faults: node fault %d is outside %s (%d vertices)", f.Vertex, topo.Name(), v)
		}
	}
	return nil
}

func cableExists(topo *topology.Topology, a, b int) bool {
	for _, l := range topo.Links() {
		if (l.Src == a && l.Dst == b) || (l.Src == b && l.Dst == a) {
			return true
		}
	}
	return false
}

// hits reports whether a directed link belongs to the cable a-b.
func hits(l topology.Link, a, b int) bool {
	return (l.Src == a && l.Dst == b) || (l.Src == b && l.Dst == a)
}

// Degraded is the topology-layer view of a fault plan: the degraded
// fabric plus the vertex renumbering that removing failed end nodes
// induced, so analyses can map degraded entities back to the original.
type Degraded struct {
	// Topo is the degraded fabric. When the plan is empty this is the
	// original topology unchanged (grid coordinates and ring orders
	// intact); otherwise it is a rebuilt custom topology with BFS
	// routing, which routes around the removed links.
	Topo *topology.Topology

	// Plan is the applied plan.
	Plan *Plan

	// NodeOf maps an original node id to its degraded id, or -1 for a
	// failed node.
	NodeOf []topology.NodeID

	// OrigNode maps a degraded node id back to the original.
	OrigNode []topology.NodeID

	// OrigVertex maps every degraded vertex (nodes and switches) back to
	// the original vertex id.
	OrigVertex []int

	// RemovedLinks lists the original directed link ids the plan removed.
	RemovedLinks []topology.LinkID
}

// Apply produces the degraded topology view the algorithm registry
// re-plans against. Every fault is treated as permanent regardless of
// its activation time — the planner routes around a link that is known
// to die. It errors when the plan references absent cables or vertices,
// kills so many nodes that fewer than two survive, or disconnects the
// fabric (an unroutable plan).
func Apply(topo *topology.Topology, p *Plan) (*Degraded, error) {
	if err := p.validate(topo); err != nil {
		return nil, err
	}
	if p.Empty() {
		d := &Degraded{Topo: topo, Plan: p,
			NodeOf:     make([]topology.NodeID, topo.Nodes()),
			OrigNode:   make([]topology.NodeID, topo.Nodes()),
			OrigVertex: make([]int, topo.Vertices()),
		}
		for i := range d.NodeOf {
			d.NodeOf[i] = topology.NodeID(i)
			d.OrigNode[i] = topology.NodeID(i)
		}
		for i := range d.OrigVertex {
			d.OrigVertex[i] = i
		}
		return d, nil
	}

	deadVertex := make([]bool, topo.Vertices())
	for _, f := range p.Nodes {
		deadVertex[f.Vertex] = true
	}

	// Per original link: removed, bandwidth multiplier, extra latency.
	links := topo.Links()
	removed := make([]bool, len(links))
	scale := make([]float64, len(links))
	extra := make([]sim.Time, len(links))
	for i := range scale {
		scale[i] = 1
	}
	for _, f := range p.Links {
		for i, l := range links {
			if !hits(l, f.A, f.B) {
				continue
			}
			switch {
			case f.Down:
				removed[i] = true
			case f.BWScale > 0:
				scale[i] *= f.BWScale
			default:
				extra[i] += f.AddLatency
			}
		}
	}
	for i, l := range links {
		if deadVertex[l.Src] || deadVertex[l.Dst] {
			removed[i] = true
		}
	}

	// Renumber: surviving end nodes first (dense, in original order),
	// then surviving switches.
	d := &Degraded{Plan: p, NodeOf: make([]topology.NodeID, topo.Nodes())}
	vertexOf := make([]int, topo.Vertices())
	for i := range vertexOf {
		vertexOf[i] = -1
	}
	for n := 0; n < topo.Nodes(); n++ {
		d.NodeOf[n] = -1
		if !deadVertex[n] {
			d.NodeOf[n] = topology.NodeID(len(d.OrigNode))
			vertexOf[n] = len(d.OrigNode)
			d.OrigNode = append(d.OrigNode, topology.NodeID(n))
			d.OrigVertex = append(d.OrigVertex, n)
		}
	}
	nodes := len(d.OrigNode)
	if nodes < 2 {
		return nil, fmt.Errorf("faults: plan %q leaves %s with %d live node(s); an all-reduce needs at least 2",
			p, topo.Name(), nodes)
	}
	switches := 0
	for s := 0; s < topo.Switches(); s++ {
		v := topo.SwitchVertex(s)
		if !deadVertex[v] {
			vertexOf[v] = nodes + switches
			d.OrigVertex = append(d.OrigVertex, v)
			switches++
		}
	}

	cb := topology.NewCustom(topo.Name()+"-degraded", nodes, switches)
	for i, l := range links {
		if removed[i] {
			d.RemovedLinks = append(d.RemovedLinks, l.ID)
			continue
		}
		cb.DirectedLink(vertexOf[l.Src], vertexOf[l.Dst], topology.LinkConfig{
			Bandwidth: l.Bandwidth * scale[i],
			Latency:   l.Latency + extra[i],
		})
	}
	deg, err := cb.Build()
	if err != nil {
		return nil, fmt.Errorf("faults: plan %q disconnects %s (unroutable): %w", p, topo.Name(), err)
	}
	d.Topo = deg
	return d, nil
}

// RandomLinkFailures returns a plan that fails n distinct cables of the
// topology, chosen deterministically from seed, such that the degraded
// fabric stays connected. Cables whose removal would disconnect the
// fabric are skipped; if fewer than n removable cables exist the plan
// errors.
func RandomLinkFailures(topo *topology.Topology, n int, seed int64) (*Plan, error) {
	p := &Plan{}
	if n == 0 {
		return p, nil
	}
	type cable struct{ a, b int }
	seen := map[cable]bool{}
	var cables []cable
	for _, l := range topo.Links() {
		c := cable{l.Src, l.Dst}
		if c.a > c.b {
			c.a, c.b = c.b, c.a
		}
		if !seen[c] {
			seen[c] = true
			cables = append(cables, c)
		}
	}
	sort.Slice(cables, func(i, j int) bool {
		if cables[i].a != cables[j].a {
			return cables[i].a < cables[j].a
		}
		return cables[i].b < cables[j].b
	})
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(cables), func(i, j int) { cables[i], cables[j] = cables[j], cables[i] })
	for _, c := range cables {
		if len(p.Links) == n {
			break
		}
		trial := &Plan{Links: append(append([]LinkFault(nil), p.Links...),
			LinkFault{A: c.a, B: c.b, Down: true})}
		if _, err := Apply(topo, trial); err != nil {
			continue // removal would disconnect the fabric; skip this cable
		}
		p.Links = trial.Links
	}
	if len(p.Links) < n {
		return nil, fmt.Errorf("faults: %s has only %d removable cables, %d requested",
			topo.Name(), len(p.Links), n)
	}
	return p, nil
}

// Change is one engine-visible fault activation on a directed link.
type Change struct {
	At   sim.Time
	Link topology.LinkID

	// Down kills the link at At.
	Down bool

	// BWScale multiplies the link's bandwidth from At on (1 when the
	// change does not touch bandwidth).
	BWScale float64

	// AddLatency adds propagation delay from At on.
	AddLatency sim.Time
}

// Compiled is a fault plan lowered onto one topology's directed link
// ids, for the network engines' mid-flight degradation. A nil *Compiled
// means "no faults" and is what Compile returns for an empty plan.
type Compiled struct {
	changes []Change
	effects [][]Change // per link id, sorted by At; nil when unaffected
	downAt  []sim.Time // earliest Down activation per link; never if none
}

// never is the sentinel "this link does not fail".
const never = sim.Time(math.MaxUint64)

// Compile lowers a plan onto a topology for engine-layer injection. It
// returns (nil, nil) for an empty plan so engines keep their zero-cost
// no-fault fast path.
func Compile(p *Plan, topo *topology.Topology) (*Compiled, error) {
	if p.Empty() {
		return nil, nil
	}
	if err := p.validate(topo); err != nil {
		return nil, err
	}
	links := topo.Links()
	c := &Compiled{
		effects: make([][]Change, len(links)),
		downAt:  make([]sim.Time, len(links)),
	}
	for i := range c.downAt {
		c.downAt[i] = never
	}
	add := func(ch Change) {
		c.changes = append(c.changes, ch)
		c.effects[ch.Link] = append(c.effects[ch.Link], ch)
		if ch.Down && ch.At < c.downAt[ch.Link] {
			c.downAt[ch.Link] = ch.At
		}
	}
	for _, f := range p.Links {
		for _, l := range links {
			if !hits(l, f.A, f.B) {
				continue
			}
			ch := Change{At: f.At, Link: l.ID, Down: f.Down, BWScale: 1, AddLatency: f.AddLatency}
			if f.BWScale > 0 {
				ch.BWScale = f.BWScale
			}
			add(ch)
		}
	}
	for _, f := range p.Nodes {
		for _, l := range links {
			if l.Src == f.Vertex || l.Dst == f.Vertex {
				add(Change{At: f.At, Link: l.ID, Down: true, BWScale: 1})
			}
		}
	}
	sort.SliceStable(c.changes, func(i, j int) bool {
		if c.changes[i].At != c.changes[j].At {
			return c.changes[i].At < c.changes[j].At
		}
		return c.changes[i].Link < c.changes[j].Link
	})
	for l := range c.effects {
		eff := c.effects[l]
		sort.SliceStable(eff, func(i, j int) bool { return eff[i].At < eff[j].At })
	}
	return c, nil
}

// Changes returns every fault activation sorted by (time, link), for
// engines to schedule EvLinkFault trace events and rate recomputation.
func (c *Compiled) Changes() []Change { return c.changes }

// timeEps absorbs the fluid engine's floating-point clock when comparing
// against integer fault times.
const timeEps = 1e-6

// Bandwidth returns link l's effective bandwidth at time `at` (cycles;
// fractional times come from the fluid engine's clock): 0 once the link
// is down, the base bandwidth scaled by every activated straggler fault
// otherwise.
func (c *Compiled) Bandwidth(l topology.LinkID, base float64, at float64) float64 {
	bw := base
	for _, ch := range c.effects[l] {
		if float64(ch.At) > at+timeEps {
			break
		}
		if ch.Down {
			return 0
		}
		bw *= ch.BWScale
	}
	return bw
}

// ExtraLatency returns the added propagation delay of link l at time at.
func (c *Compiled) ExtraLatency(l topology.LinkID, at float64) sim.Time {
	var add sim.Time
	for _, ch := range c.effects[l] {
		if float64(ch.At) > at+timeEps {
			break
		}
		add += ch.AddLatency
	}
	return add
}

// DownAt returns the time link l fails, if the plan fails it at all.
func (c *Compiled) DownAt(l topology.LinkID) (sim.Time, bool) {
	at := c.downAt[l]
	return at, at != never
}
