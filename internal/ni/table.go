// Package ni models the co-designed network interface of §IV-A: the
// all-reduce schedule table (Fig. 5), and the schedule-management state
// machine of Fig. 6 — timestep counter, lockstep down-counter, opcode
// decoder, and dependency clearing. The tables are compiled from the
// transfer DAG of a schedule whose flows are the spanning trees Algorithm
// 1 constructs; one table per node, two entries per tree (one Reduce for
// the reduce-scatter phase, one Gather for the all-gather phase), plus
// NOPs for the steps a node sits out.
package ni

import (
	"fmt"
	"strings"

	"multitree/internal/collective"
	"multitree/internal/topology"
)

// MaxChildren is the Children field width of a table entry. The paper
// sizes it as the bandwidth ratio between the network interface and one
// link (4 for the evaluated direct networks).
const MaxChildren = 4

// Nil marks an absent Parent or Children slot.
const Nil topology.NodeID = -1

// Entry is one all-reduce schedule table row (Fig. 5): opcode, tree flow,
// dependency endpoints, issue step, and the DMA descriptor for the
// gradient chunk.
type Entry struct {
	Op       collective.Op
	FlowID   int
	Parent   topology.NodeID
	Children [MaxChildren]topology.NodeID
	Step     int

	// StartAddr and Size describe the gradient chunk in node memory, in
	// elements: the flow's segment of the schedule being compiled.
	StartAddr int
	Size      int
}

// Table is one node's all-reduce schedule table.
type Table struct {
	Node    topology.NodeID
	Entries []Entry
}

// Tables holds the per-node tables of a system plus the total step count.
type Tables struct {
	PerNode []Table
	Steps   int // steps per phase (reduce-scatter == all-gather == Steps)
}

// EntryBits returns the storage cost of one entry in bits: a 4-bit
// opcode, byte-aligned node-id fields (flow, parent, 4 children), a
// 16-bit step counter, and the 64-bit start address and 64-bit size of
// the DMA descriptor. For a 64-node system this is 196 bits, matching the
// paper's "each table entry needs 200 bits" estimate (§V-A).
func EntryBits(nodes int) int {
	idBits := bitsFor(nodes)
	if idBits < 8 {
		idBits = 8 // byte-aligned id fields
	}
	return 4 + idBits + idBits + MaxChildren*idBits + 16 + 64 + 64
}

// TableBytes returns the per-node schedule table size in bytes: 2N entries
// for an N-node system (one Reduce and one Gather per tree), the §V-A
// hardware-overhead estimate (3.2 KB for 64 nodes).
func TableBytes(nodes int) int {
	return 2 * nodes * EntryBits(nodes) / 8
}

func bitsFor(n int) int {
	b := 1
	for (1 << b) < n {
		b++
	}
	return b
}

// String renders a table like Fig. 5.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Accelerator %d\n", t.Node)
	fmt.Fprintf(&b, "%-7s %-6s %-6s %-16s %-4s\n", "Op", "FlowID", "Parent", "Children", "Step")
	for _, e := range t.Entries {
		if e.Op == collective.NOP {
			fmt.Fprintf(&b, "%-7s %-6s %-6s %-16s %-4d\n", "NOP", "-", "-", "-", e.Step)
			continue
		}
		parent := "nil"
		if e.Parent != Nil {
			parent = fmt.Sprint(e.Parent)
		}
		var kids []string
		for _, c := range e.Children {
			if c == Nil {
				kids = append(kids, "nil")
			} else {
				kids = append(kids, fmt.Sprint(c))
			}
		}
		fmt.Fprintf(&b, "%-7s %-6d %-6s %-16s %-4d\n",
			e.Op, e.FlowID, parent, strings.Join(kids, " "), e.Step)
	}
	return b.String()
}
