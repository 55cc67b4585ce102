// Schedule-inspector example: walk the paper's worked example (§III-B,
// Fig. 3 and Fig. 5) programmatically — construct the MultiTree schedule
// trees for a 2x2 Mesh, print the per-step link allocation, compile the
// co-designed NI schedule tables, and drive the Fig. 6 state machine to
// prove the tables alone complete a correct all-reduce.
//
// This example reaches below the public facade into the internal packages
// to show the co-design's moving parts; downstream users normally stay on
// the multitree package API (see examples/quickstart).
package main

import (
	"fmt"
	"log"

	"multitree/internal/collective"
	"multitree/internal/core"
	"multitree/internal/ni"
	"multitree/internal/topology"
)

func main() {
	topo := topology.Mesh(2, 2, topology.DefaultLinkConfig())

	// Algorithm 1: one spanning tree per node, built top-down with
	// per-step link allocation.
	trees, err := core.BuildTrees(topo, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Fig. 3: all-gather schedule trees of the 2x2 Mesh")
	for _, tr := range trees {
		fmt.Println("  " + tr.String())
	}

	// Lower to the transfer DAG and check the schedule's semantics on
	// real vectors.
	sched, err := collective.TreesToSchedule(core.Algorithm, topo, 1024, trees)
	if err != nil {
		log.Fatal(err)
	}
	if err := collective.VerifyAllReduce(sched, collective.RampInputs(4, 1024)); err != nil {
		log.Fatal(err)
	}
	a := collective.Analyze(sched)
	fmt.Printf("\nschedule: %s\n", a)

	// Compile the Fig. 5 schedule tables from the transfer DAG and run
	// the Fig. 6 NI state machine on them.
	tables, err := ni.CompileSchedule(sched)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nFig. 5: per-accelerator schedule tables")
	for _, tab := range tables.PerNode {
		fmt.Println(tab.String())
	}

	machine := ni.NewMachine(tables, topo.Nodes())
	rounds, err := machine.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("NI state machine completed the all-reduce in %d issue rounds\n", rounds)
	fmt.Printf("hardware cost: %d bits/entry, %d B/table (paper: ~200 bits, 3.2 KB at 64 nodes)\n",
		ni.EntryBits(topo.Nodes()), ni.TableBytes(topo.Nodes()))
}
