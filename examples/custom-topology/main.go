// Custom-topology example: MultiTree is topology-aware, not
// topology-specific (§VII-B of the paper). This example builds an
// irregular two-rack cluster — two 4-node leaf switches joined by a
// double-width spine trunk — and shows MultiTree scheduling
// contention-free all-reduce over it, something the fixed-topology
// baselines (2D-Ring, HDRM) cannot target at all, while the
// topology-oblivious double binary tree congests the trunk. On this
// NIC-bound cluster Ring remains competitive for large gradients, the
// same equal-at-large-sizes behaviour the paper reports on Fat-Tree
// (Fig. 9c); MultiTree's schedule stays contention-free without any
// per-topology code.
package main

import (
	"fmt"
	"log"

	multitree "multitree"
)

func main() {
	// Vertices 0..7 are accelerators; switches: 0, 1 are leaves, 2 is the
	// spine.
	b := multitree.NewCustomTopology("two-racks", 8, 3)
	leaf0, leaf1, spine := b.Switch(0), b.Switch(1), b.Switch(2)
	for n := 0; n < 4; n++ {
		b.Connect(n, leaf0)
		b.Connect(4+n, leaf1)
	}
	// A double-width trunk: heterogeneous bandwidth as parallel links (the
	// multigraph treatment of §VII-B).
	b.Connect(leaf0, spine).Connect(leaf0, spine)
	b.Connect(leaf1, spine).Connect(leaf1, spine)
	topo, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	const dataBytes = 4 << 20
	fmt.Printf("custom topology %q: %d accelerators, all-reduce %d MiB\n\n",
		topo.Name(), topo.Nodes(), dataBytes>>20)

	for _, alg := range []multitree.Algorithm{multitree.Ring, multitree.DBTree, multitree.MultiTree} {
		sched, err := multitree.BuildSchedule(topo, alg, dataBytes)
		if err != nil {
			log.Fatal(err)
		}
		if err := sched.Verify(); err != nil {
			log.Fatalf("%s: %v", alg, err)
		}
		res, err := sched.Simulate(multitree.SimOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s steps=%-3d transfers=%-4d contention-free=%-5v %8.2f GB/s\n",
			alg, sched.Steps(), sched.Transfers(), sched.ContentionFree(), res.BandwidthGBps)
	}
}
