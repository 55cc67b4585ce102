package ni

import (
	"fmt"

	"multitree/internal/collective"
	"multitree/internal/obs"
	"multitree/internal/topology"
)

// CompileSchedule compiles a schedule — built in-process or imported from
// a schedule IR file — into the per-node Fig. 5 tables in one pass over
// its transfer DAG. Each all-gather transfer is one tree edge parent ->
// child at step tot+k; its reduce-scatter mirror child -> parent at step
// tot-k+1 is the same edge reversed, so a node's row for a flow is its
// one transfer plus the children it depends on. For every flow each
// non-root node gets a Reduce row (chained over several rows when it has
// more than MaxChildren children) and each node with children one Gather
// row per distinct child step; NOP rows fill the steps a node sits out,
// to hold the lockstep. Rows are placed by counting sort on (node, step)
// in flow order, and the DMA descriptors come from the schedule's own
// flow segment table, so non-uniform partitions survive the round trip.
//
// Schedules whose two phases are not mirrored spanning trees (ring, HDRM,
// subset flows) have no Fig. 5 encoding and return a descriptive error.
func CompileSchedule(s *collective.Schedule) (*Tables, error) {
	return CompileScheduleObserved(s, nil)
}

// CompileScheduleObserved is CompileSchedule bracketed as the ni-compile
// phase of a PlanObserver: phase boundaries plus the compiled entry count
// (NOPs included — they occupy table rows). A nil observer is exactly
// CompileSchedule.
func CompileScheduleObserved(s *collective.Schedule, o obs.PlanObserver) (*Tables, error) {
	if o == nil {
		return compileSchedule(s)
	}
	o.PhaseStart(obs.PhaseNICompile)
	ts, err := compileSchedule(s)
	var c obs.PlanCounters
	if ts != nil {
		for n := range ts.PerNode {
			c.TableEntries += int64(len(ts.PerNode[n].Entries))
		}
	}
	o.PhaseEnd(obs.PhaseNICompile, c)
	return ts, err
}

// compiler holds the per-flow trees read off a schedule as flat
// flow-major arrays (index flow*n + node), plus the scratch of the
// two-pass row placement.
type compiler struct {
	s     *collective.Schedule
	n     int
	tot   int // steps per phase in the schedule
	h     int // maximum tree height: the tables' steps per phase
	par   []int32
	ag    []int32 // all-gather step of the edge into the node; 0 at the root
	root  []int32
	kids  []int32 // children of the current flow, by parent, by (step, id)
	kOff  []int32 // n+1 offsets into kids
	order []int32 // the current flow's non-root nodes by (step, id)
	sOff  []int32 // h+2 offsets into order

	stride int     // 2h+1: one slot per (node, step), step 0 unused
	cnt    []int   // rows per (node, step), then the next free row index
	rows   []Entry // nil during the counting pass
}

func compileSchedule(s *collective.Schedule) (*Tables, error) {
	if s.Steps <= 0 || s.Steps%2 != 0 {
		return nil, fmt.Errorf("ni: %s schedule has %d steps, not an even two-phase count", s.Algorithm, s.Steps)
	}
	c := &compiler{s: s, n: s.Topo.Nodes(), tot: s.Steps / 2}
	if err := c.readEdges(); err != nil {
		return nil, err
	}
	if err := c.checkTrees(); err != nil {
		return nil, err
	}
	return c.place()
}

// readEdges fills the parent and step arrays from the all-gather
// transfers, then checks that every reduce-scatter transfer is the mirror
// of one edge and that every edge has its mirror.
func (c *compiler) readEdges() error {
	n, flows := c.n, len(c.s.Flows)
	c.par = make([]int32, flows*n)
	c.ag = make([]int32, flows*n)
	for i := range c.par {
		c.par[i] = -1
	}
	ts := c.s.Transfers
	for i := range ts {
		t := &ts[i]
		if t.Flow < 0 || int(t.Flow) >= flows || t.Src < 0 || int(t.Src) >= n || t.Dst < 0 || int(t.Dst) >= n {
			return fmt.Errorf("ni: transfer %d (flow %d, n%d->n%d) is outside the %d-flow, %d-node schedule",
				i, t.Flow, t.Src, t.Dst, flows, n)
		}
		switch t.Op {
		case collective.Gather:
			k := int(t.Step) - c.tot
			if k < 1 || k > c.tot {
				return fmt.Errorf("ni: flow %d gather at step %d is outside the all-gather phase (%d..%d)",
					t.Flow, t.Step, c.tot+1, 2*c.tot)
			}
			j := int(t.Flow)*n + int(t.Dst)
			if c.par[j] >= 0 {
				return fmt.Errorf("ni: flow %d node %d receives two all-gather transfers", t.Flow, t.Dst)
			}
			c.par[j], c.ag[j] = int32(t.Src), int32(k)
		case collective.Reduce:
		default:
			return fmt.Errorf("ni: transfer %d has op %v", i, t.Op)
		}
	}
	mirrored := make([]bool, flows*n)
	for i := range ts {
		t := &ts[i]
		if t.Op != collective.Reduce {
			continue
		}
		j := int(t.Flow)*n + int(t.Src)
		if c.par[j] != int32(t.Dst) || int(t.Step) != c.tot-int(c.ag[j])+1 || mirrored[j] {
			return fmt.Errorf("ni: flow %d reduce n%d->n%d at step %d mirrors no all-gather edge",
				t.Flow, t.Src, t.Dst, t.Step)
		}
		mirrored[j] = true
	}
	for j, p := range c.par {
		if p >= 0 && !mirrored[j] {
			f, v := j/n, j%n
			return fmt.Errorf("ni: flow %d edge n%d->n%d (gather step %d) has no mirrored reduce n%d->n%d at step %d",
				f, p, v, c.tot+int(c.ag[j]), v, p, c.tot-int(c.ag[j])+1)
		}
	}
	return nil
}

// checkTrees checks that every flow's edges form one spanning tree whose
// children attach strictly after their non-root parent, and records the
// roots and the maximum height.
func (c *compiler) checkTrees() error {
	n, flows := c.n, len(c.s.Flows)
	c.root = make([]int32, flows)
	c.kOff = make([]int32, n+1)
	for f := 0; f < flows; f++ {
		par, ag := c.par[f*n:(f+1)*n], c.ag[f*n:(f+1)*n]
		sends := c.kOff[:n] // children per node; children() reuses kOff later
		clear(sends)
		edges := 0
		for _, p := range par {
			if p >= 0 {
				sends[p]++
				edges++
			}
		}
		if edges == 0 {
			return fmt.Errorf("ni: flow %d has no all-gather transfers", f)
		}
		root := int32(-1)
		for v, p := range par {
			if p >= 0 {
				continue
			}
			if sends[v] == 0 {
				return fmt.Errorf("ni: flow %d covers a node subset (node %d neither sends nor receives); subset schedules are not table-compilable", f, v)
			}
			if root >= 0 {
				return fmt.Errorf("ni: flow %d has two roots (n%d and n%d)", f, root, v)
			}
			root = int32(v)
		}
		if root < 0 {
			return fmt.Errorf("ni: flow %d all-gather edges form a cycle", f)
		}
		c.root[f] = root
		for v, p := range par {
			if p < 0 {
				continue
			}
			if p != root && ag[p] >= ag[v] {
				return fmt.Errorf("ni: flow %d does not form a schedule tree: node %d (step %d) attaches no later than parent %d (step %d)",
					f, v, ag[v], p, ag[p])
			}
			if int(ag[v]) > c.h {
				c.h = int(ag[v])
			}
		}
	}
	return nil
}

// children lists flow f's children of every node in (attach step, id)
// order: a counting sort of the non-root nodes by step, then a stable
// scatter into per-parent segments.
func (c *compiler) children(f int) {
	n := c.n
	par, ag := c.par[f*n:(f+1)*n], c.ag[f*n:(f+1)*n]
	clear(c.sOff)
	clear(c.kOff)
	for v, p := range par {
		if p >= 0 {
			c.sOff[ag[v]+1]++
			c.kOff[p+1]++
		}
	}
	for k := 1; k < len(c.sOff); k++ {
		c.sOff[k] += c.sOff[k-1]
	}
	for v := 1; v <= n; v++ {
		c.kOff[v] += c.kOff[v-1]
	}
	for v, p := range par {
		if p >= 0 {
			c.order[c.sOff[ag[v]]] = int32(v)
			c.sOff[ag[v]]++
		}
	}
	for _, v := range c.order[:c.kOff[n]] {
		p := par[v]
		c.kids[c.kOff[p]] = v
		c.kOff[p]++
	}
	// The scatter advanced each offset to the next segment's start.
	copy(c.kOff[1:], c.kOff[:n])
	c.kOff[0] = 0
}

// place lays the rows out in two passes over the flows: the first counts
// rows per (node, step), a prefix sum turns the counts into row indices
// (writing a NOP at every empty step), and the second writes each row at
// its index. Flows are visited in id order, so rows sharing a (node, step)
// come out in flow order with chained rows in chain order.
func (c *compiler) place() (*Tables, error) {
	n, steps := c.n, 2*c.h
	c.stride = steps + 1
	c.cnt = make([]int, n*c.stride)
	c.kids = make([]int32, n)
	c.order = make([]int32, n)
	c.sOff = make([]int32, c.h+2)
	for f := range c.s.Flows {
		if err := c.flowRows(f); err != nil {
			return nil, err
		}
	}
	total := 0
	for v := 0; v < n; v++ {
		for step := 1; step <= steps; step++ {
			total += max(c.cnt[v*c.stride+step], 1) // an empty step holds a NOP
		}
	}
	c.rows = make([]Entry, total)
	ts := &Tables{Steps: c.h, PerNode: make([]Table, n)}
	next := 0
	for v := range ts.PerNode {
		start := next
		for step := 1; step <= steps; step++ {
			i := v*c.stride + step
			k := c.cnt[i]
			c.cnt[i] = next
			if k == 0 {
				c.rows[next] = Entry{Op: collective.NOP, FlowID: -1, Parent: Nil,
					Children: noChildren, Step: step}
				k = 1
			}
			next += k
		}
		ts.PerNode[v] = Table{Node: topology.NodeID(v), Entries: c.rows[start:next:next]}
	}
	for f := range c.s.Flows {
		if err := c.flowRows(f); err != nil {
			return nil, err
		}
	}
	return ts, nil
}

var noChildren = [MaxChildren]topology.NodeID{Nil, Nil, Nil, Nil}

// flowRows emits flow f's rows: per node, its Reduce row(s) at the
// reversed step and one Gather row per distinct child step.
func (c *compiler) flowRows(f int) error {
	c.children(f)
	n, root := c.n, c.root[f]
	par, ag := c.par[f*n:(f+1)*n], c.ag[f*n:(f+1)*n]
	seg := c.s.Flows[f]
	for v := 0; v < n; v++ {
		kids := c.kids[c.kOff[v]:c.kOff[v+1]]
		parent := Nil
		if int32(v) != root {
			parent = topology.NodeID(par[v])
			step := c.h - int(ag[v]) + 1
			rest := kids
			for first := true; first || len(rest) > 0; first = false {
				m := min(len(rest), MaxChildren)
				if e := c.slot(v, step); e != nil {
					e.fill(collective.Reduce, f, parent, rest[:m], step, seg)
				}
				rest = rest[m:]
			}
		}
		for len(kids) > 0 {
			k := ag[kids[0]]
			m := 1
			for m < len(kids) && ag[kids[m]] == k {
				m++
			}
			if m > MaxChildren {
				return fmt.Errorf("ni: node %d tree %d step %d has more than %d same-step children",
					v, f, k, MaxChildren)
			}
			if e := c.slot(v, c.h+int(k)); e != nil {
				e.fill(collective.Gather, f, parent, kids[:m], c.h+int(k), seg)
			}
			kids = kids[m:]
		}
	}
	return nil
}

// slot claims the next row of node v at step. During the counting pass it
// only counts and returns nil; afterwards it returns the row to fill.
func (c *compiler) slot(v, step int) *Entry {
	i := v*c.stride + step
	if c.rows == nil {
		c.cnt[i]++
		return nil
	}
	e := &c.rows[c.cnt[i]]
	c.cnt[i]++
	return e
}

// fill writes a Reduce or Gather row in place; kids holds at most
// MaxChildren ids and the remaining Children slots are Nil.
func (e *Entry) fill(op collective.Op, flow int, parent topology.NodeID, kids []int32, step int, seg collective.Range) {
	e.Op, e.FlowID, e.Parent, e.Step = op, flow, parent, step
	e.Children = noChildren
	for i, k := range kids {
		e.Children[i] = topology.NodeID(k)
	}
	e.StartAddr, e.Size = seg.Off, seg.Len
}
