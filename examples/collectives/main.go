// Collectives example: the broader operations of the paper's §VII-B on
// top of the MultiTree schedule trees — standalone reduce-scatter and
// all-gather (hybrid-parallel building blocks), the all-to-all
// personalized exchange of embedding-heavy models like DLRM, a subset
// all-reduce in which only some nodes participate, and the interconnect
// energy estimate that quantifies the message-based flow control's
// efficiency argument.
package main

import (
	"fmt"
	"log"

	multitree "multitree"
)

func main() {
	topo := multitree.NewTorus(4, 4)
	const dataBytes = 4 << 20

	fmt.Printf("MultiTree collectives on %s\n\n", topo.Name())

	type namedSchedule struct {
		name  string
		sched *multitree.Schedule
	}
	var ops []namedSchedule

	ar, err := multitree.BuildSchedule(topo, multitree.MultiTree, dataBytes)
	if err != nil {
		log.Fatal(err)
	}
	ops = append(ops, namedSchedule{"all-reduce", ar})

	rs, err := multitree.BuildReduceScatter(topo, dataBytes)
	if err != nil {
		log.Fatal(err)
	}
	ops = append(ops, namedSchedule{"reduce-scatter", rs})

	ag, err := multitree.BuildAllGather(topo, dataBytes)
	if err != nil {
		log.Fatal(err)
	}
	ops = append(ops, namedSchedule{"all-gather", ag})

	a2a, err := multitree.BuildAllToAll(topo, dataBytes/int64(topo.Nodes()))
	if err != nil {
		log.Fatal(err)
	}
	ops = append(ops, namedSchedule{"all-to-all", a2a})

	sub, err := multitree.BuildSubsetAllReduce(topo, []int{0, 2, 5, 7, 8, 10, 13, 15}, dataBytes)
	if err != nil {
		log.Fatal(err)
	}
	ops = append(ops, namedSchedule{"subset all-reduce (8 of 16)", sub})

	fmt.Printf("%-28s %-7s %-10s %-10s %s\n", "collective", "steps", "transfers", "cycles", "contention-free")
	for _, op := range ops {
		// Execute each schedule on synthetic data and check the
		// collective's semantics before reporting its numbers.
		if err := op.sched.Verify(); err != nil {
			log.Fatalf("%s: %v", op.name, err)
		}
		res, err := op.sched.Simulate(multitree.SimOptions{MessageBased: true})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s %-7d %-10d %-10d %v\n",
			op.name, op.sched.Steps(), op.sched.Transfers(), res.Cycles, op.sched.ContentionFree())
	}

	// Energy: the §IV-B flow-control co-design in joules.
	pkt, err := ar.EstimateEnergy(multitree.SimOptions{})
	if err != nil {
		log.Fatal(err)
	}
	msg, err := ar.EstimateEnergy(multitree.SimOptions{MessageBased: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nall-reduce interconnect energy, packet-based:  %8.1f uJ (%d arbitration events)\n",
		pkt.TotalMicrojoules, pkt.PacketEvents)
	fmt.Printf("all-reduce interconnect energy, message-based: %8.1f uJ (%d arbitration events, %.1f%% saved)\n",
		msg.TotalMicrojoules, msg.PacketEvents,
		100*(1-msg.TotalMicrojoules/pkt.TotalMicrojoules))
}
