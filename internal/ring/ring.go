// Package ring implements the Baidu-style ring all-reduce baseline of the
// paper (§II-B): data is split into N chunks; a reduce-scatter pass rotates
// partial sums around a unidirectional ring for N-1 steps, then an
// all-gather pass rotates the fully reduced chunks for another N-1 steps.
// Ring all-reduce is bandwidth-optimal but needs 2(N-1) algorithmic steps,
// and on Mesh/Torus topologies it leaves most links idle (§II-C).
package ring

import (
	"multitree/internal/collective"
	"multitree/internal/topology"
)

// Algorithm is the schedule name used in reports.
const Algorithm = "ring"

// Build constructs the ring all-reduce schedule for elems gradient
// elements on the topology, embedding the ring with topo.RingOrder (a
// snake for grids, switch-major for indirect networks).
//
// Chunk c starts its reduction at ring position c+1 (as in Fig. 1 of the
// paper, where segment 0 is first sent from Node 1) and finishes at
// position c; the all-gather then pushes it forward from position c.
func Build(topo *topology.Topology, elems int) *collective.Schedule {
	order := topo.RingOrder()
	n := len(order)
	s := collective.NewSchedule(Algorithm, topo, elems, n)
	if n < 2 {
		return s
	}
	// Sized exactly: 2(n-1) steps of n hops, each but a chunk's first
	// with one dependency.
	s.Reserve(2*(n-1)*n, 2*(n-1)*n-n, 0)
	// last[c] is the most recent transfer of chunk c, the dependency of
	// the chunk's next hop.
	last := make([]collective.TransferID, n)
	for c := range last {
		last[c] = -1
	}
	addHop := func(c, srcPos, step int, op collective.Op) {
		dstPos := (srcPos + 1) % n
		var deps []collective.TransferID
		if last[c] >= 0 {
			deps = last[c : c+1]
		}
		last[c] = s.Add(collective.Transfer{
			Src: order[srcPos], Dst: order[dstPos],
			Op: op, Flow: int32(c), Step: int32(step),
		}, deps, nil)
	}
	// Reduce-scatter: at step t, chunk c moves from position (c+t) to
	// (c+t+1) mod n, accumulating.
	for t := 1; t <= n-1; t++ {
		for c := 0; c < n; c++ {
			addHop(c, (c+t)%n, t, collective.Reduce)
		}
	}
	// All-gather: at step t, chunk c moves from position (c+t-1) to (c+t).
	for t := 1; t <= n-1; t++ {
		for c := 0; c < n; c++ {
			addHop(c, (c+t-1)%n, n-1+t, collective.Gather)
		}
	}
	return s
}
