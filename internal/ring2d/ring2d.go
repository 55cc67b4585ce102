// Package ring2d implements the 2D-Ring all-reduce of Ying et al. used on
// TPU pods (§II-C of the paper): the gradient is all-reduced with rings
// along one grid dimension, then rings along the other. To use all four
// torus links of every node the gradient is split into four quarters that
// differ in dimension order and ring direction:
//
//	quarter 0: X-first, forward rings    quarter 1: X-first, backward
//	quarter 2: Y-first, forward          quarter 3: Y-first, backward
//
// During phase one the four quarters occupy the X+, X-, Y+ and Y- links
// respectively; in phase two they swap dimensions, so all links stay busy
// throughout — the full-utilization property the paper credits 2D-Ring
// with. The cost is that every element crosses two full ring all-reduces:
// the communicated volume approaches twice the bandwidth-optimal amount
// ("2D-ring transmits 2N(N-1) data while flat ring communicates N^2-1"),
// which is exactly the inefficiency MultiTree removes.
package ring2d

import (
	"fmt"

	"multitree/internal/collective"
	"multitree/internal/topology"
)

// Algorithm is the schedule name used in reports.
const Algorithm = "2d-ring"

// Build constructs the 2D-Ring schedule. The topology must be a Mesh or
// Torus (it needs grid coordinates). On a Mesh the rings still wrap
// logically; the wrap hop crosses the whole row against same-direction
// traffic, which is why 2D-Ring loses to flat ring on large Meshes
// (§VI-A).
func Build(topo *topology.Topology, elems int) (*collective.Schedule, error) {
	nx, ny := topo.GridDims()
	if nx == 0 || ny == 0 {
		return nil, fmt.Errorf("ring2d: %s is not a grid topology", topo.Name())
	}
	// Sized exactly: each quarter runs a 2(n-1)-step ring of n hops along
	// every line of both dimensions, 2·nx·ny·(nx+ny-2) transfers. All but
	// each chunk's first hop in a line have one dependency; a second
	// phase's first hop instead waits on the 2(n-1) transfers its sender
	// received in the first, which sums to total/2 over the quarters.
	total := 8 * nx * ny * (nx + ny - 2)
	s := &collective.Schedule{Algorithm: Algorithm, Topo: topo, Elems: elems}
	s.Reserve(total, total+total/2-8*nx*ny, 0)
	quarters := collective.Partition(elems, 4)

	node := func(x, y int) topology.NodeID { return topology.NodeID(y*nx + x) }
	// xLines[y] lists row y left to right; yLines[x] lists column x top to
	// bottom.
	xLines := make([][]topology.NodeID, ny)
	for y := range xLines {
		for x := 0; x < nx; x++ {
			xLines[y] = append(xLines[y], node(x, y))
		}
	}
	yLines := make([][]topology.NodeID, nx)
	for x := range yLines {
		for y := 0; y < ny; y++ {
			yLines[x] = append(yLines[x], node(x, y))
		}
	}

	for q, qr := range quarters {
		first, second := xLines, yLines
		if q >= 2 {
			first, second = yLines, xLines
		}
		backward := q%2 == 1
		phase1Steps := 2 * (len(first[0]) - 1)
		recv := ringPhase(s, first, qr, backward, 0, nil)
		ringPhase(s, second, qr, backward, phase1Steps, recv)
	}
	return s, nil
}

// ringPhase runs one ring all-reduce of segment qr along every line in
// lines, starting at stepBase. backward reverses ring direction. inDeps,
// when non-nil, gates each node's first send on the transfers it received
// in the previous phase. It returns the transfers received per node, for
// chaining the next phase.
func ringPhase(s *collective.Schedule, lines [][]topology.NodeID, qr collective.Range,
	backward bool, stepBase int, inDeps map[topology.NodeID][]collective.TransferID,
) map[topology.NodeID][]collective.TransferID {
	n := len(lines[0])
	if backward {
		// A backward ring is a forward ring over the reversed node order.
		rev := make([][]topology.NodeID, len(lines))
		for i, line := range lines {
			r := make([]topology.NodeID, n)
			for j, v := range line {
				r[n-1-j] = v
			}
			rev[i] = r
		}
		lines = rev
	}
	// Register this phase's chunk flows.
	chunkBase := len(s.Flows)
	for _, c := range collective.Partition(qr.Len, n) {
		s.Flows = append(s.Flows, collective.Range{Off: qr.Off + c.Off, Len: c.Len})
	}
	recv := make(map[topology.NodeID][]collective.TransferID)
	// last[line][chunk] is the chunk's latest transfer in that line.
	last := make([][]collective.TransferID, len(lines))
	for i := range last {
		last[i] = make([]collective.TransferID, n)
		for c := range last[i] {
			last[i][c] = -1
		}
	}
	hop := func(line, c, srcPos, step int, op collective.Op) {
		dstPos := (srcPos + 1) % n
		src, dst := lines[line][srcPos], lines[line][dstPos]
		var deps []collective.TransferID
		if last[line][c] >= 0 {
			deps = last[line][c : c+1]
		} else if inDeps != nil {
			deps = inDeps[src]
		}
		id := s.Add(collective.Transfer{
			Src: src, Dst: dst, Op: op, Flow: int32(chunkBase + c),
			Step: int32(stepBase + step),
		}, deps, nil)
		last[line][c] = id
		recv[dst] = append(recv[dst], id)
	}
	for t := 1; t <= n-1; t++ {
		for line := range lines {
			for c := 0; c < n; c++ {
				hop(line, c, (c+t)%n, t, collective.Reduce)
			}
		}
	}
	for t := 1; t <= n-1; t++ {
		for line := range lines {
			for c := 0; c < n; c++ {
				hop(line, c, (c+t-1)%n, n-1+t, collective.Gather)
			}
		}
	}
	return recv
}
