// Quickstart: build an 8x8 Torus, run every applicable all-reduce
// algorithm on a 16 MiB gradient, and print achieved bandwidth — a
// miniature of the paper's Fig. 9a comparison.
package main

import (
	"fmt"
	"log"

	multitree "multitree"
)

func main() {
	topo := multitree.NewTorus(8, 8)
	const dataBytes = 16 << 20

	fmt.Printf("all-reduce of %d MiB on %s (%d accelerators)\n\n",
		dataBytes>>20, topo.Name(), topo.Nodes())
	fmt.Printf("%-12s %-8s %-12s %-12s %s\n", "algorithm", "steps", "cycles", "GB/s", "notes")

	for _, alg := range multitree.Algorithms() {
		if !topo.Supports(alg) {
			continue
		}
		sched, err := multitree.BuildSchedule(topo, alg, dataBytes)
		if err != nil {
			log.Fatal(err)
		}
		if err := sched.Verify(); err != nil {
			log.Fatalf("%s does not all-reduce correctly: %v", alg, err)
		}
		res, err := sched.Simulate(multitree.SimOptions{})
		if err != nil {
			log.Fatal(err)
		}
		notes := fmt.Sprintf("%.2fx-optimal bytes", sched.BandwidthOverhead())
		if sched.ContentionFree() {
			notes += ", contention-free"
		}
		fmt.Printf("%-12s %-8d %-12d %-12.2f %s\n",
			alg, sched.Steps(), res.Cycles, res.BandwidthGBps, notes)
	}

	// The co-designed message-based flow control (§IV-B) recovers the
	// per-packet head-flit overhead for big gradients.
	sched, err := multitree.BuildSchedule(topo, multitree.MultiTree, dataBytes)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sched.Simulate(multitree.SimOptions{MessageBased: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-12s %-8d %-12d %-12.2f message-based flow control\n",
		"mtree-msg", sched.Steps(), res.Cycles, res.BandwidthGBps)
}
