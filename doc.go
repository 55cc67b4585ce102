// Package multitree is a from-scratch reproduction of "Communication
// Algorithm-Architecture Co-Design for Distributed Deep Learning" (Huang
// et al., ISCA 2021): the MultiTree topology-aware all-reduce algorithm,
// its co-designed network interface with hardware schedule tables and
// message-based flow control for big gradient exchanges, the four baseline
// all-reduce algorithms it is evaluated against (Ring, Double Binary Tree,
// 2D-Ring, HDRM), discrete-event network simulators at fluid and packet
// granularity, a systolic-array training-accelerator model, and the seven
// DNN workloads of the paper's evaluation.
//
// The root package is the stable public API: build a topology, pick an
// algorithm, build a schedule, verify and simulate it, or simulate whole
// training iterations. It covers what the examples use; the command-line
// tools reach the rest (plan caches, profiling, tracing, schedule
// import/export, the packet engine, every fabric) through the internal/
// packages directly. See DESIGN.md for the system inventory and
// EXPERIMENTS.md for the paper-versus-measured record of every table and
// figure.
//
// Quick start:
//
//	topo := multitree.NewTorus(8, 8)
//	sched, _ := multitree.BuildSchedule(topo, multitree.MultiTree, 64<<20)
//	res, _ := sched.Simulate(multitree.SimOptions{MessageBased: true})
//	fmt.Printf("%.1f GB/s\n", res.BandwidthGBps)
package multitree
