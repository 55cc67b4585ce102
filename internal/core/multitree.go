// Package core implements MultiTree, the paper's primary contribution: a
// topology- and link-utilization-aware all-reduce algorithm (Algorithm 1)
// that builds |V| spanning schedule trees concurrently, top-down from the
// roots, allocating physical links per time step so that the resulting
// reduce-scatter and all-gather schedules are contention-free on any
// interconnect topology.
//
// Key properties reproduced from §III:
//
//   - One tree per node, so every node is a root of one flow and an
//     internal/leaf node of all others, using all bidirectional links.
//   - Trees take turns adding one node at a time (balance); parents are
//     considered in their order of addition (breadth-first), which packs
//     communication into levels near the roots and sparsifies the leaves.
//   - A fresh copy of the topology graph per time step; an edge allocated
//     to a tree is unavailable to every other tree within that step, so
//     same-step transfers never share a link.
//   - Reduce-scatter schedules are the time-reversed all-gather schedules
//     (Algorithm 1 lines 16-18).
//   - On switch-based (indirect) networks, links are allocated along
//     node-switch-...-switch-node paths discovered breadth-first
//     (§III-C3), and every transfer carries its allocated source route.
package core

import (
	"fmt"

	"multitree/internal/collective"
	"multitree/internal/obs"
	"multitree/internal/topology"
)

// Algorithm is the schedule name used in reports.
const Algorithm = "multitree"

// TreeOrder selects how trees take turns during construction (§III-C1).
type TreeOrder int

const (
	// RoundRobinByRoot alternates trees by ascending root id, the paper's
	// default that "works fine in most cases, especially for symmetric
	// networks like Torus".
	RoundRobinByRoot TreeOrder = iota
	// ByRemainingHeight prioritizes trees with larger remaining height so
	// the longest paths are scheduled earliest, the paper's suggestion for
	// asymmetric or irregular networks.
	ByRemainingHeight
)

// Options tunes tree construction; the zero value reproduces the paper's
// defaults.
type Options struct {
	Order TreeOrder

	// ReverseNeighborOrder flips the adjacency preference (X before Y on
	// grids instead of Y before X); used by the dimension-order ablation.
	ReverseNeighborOrder bool

	// Trees caps the number of schedule trees (0 or >= N means one per
	// node, the paper's default). Fewer trees trade aggregate bandwidth
	// for fewer construction steps — the Blink-inspired knob §VII-C
	// leaves for future work. Roots are nodes 0..Trees-1.
	Trees int

	// ShortestPathFirst changes the per-turn choice on switch-based
	// networks: instead of taking the first parent (in addition order)
	// that can reach any child, the tree takes the (parent, child) pair
	// with the shortest free path, conserving scarce inter-switch links.
	// This is the "pruning and adjusting the trees" direction the paper's
	// §IV-A footnote leaves for future exploration; the tree-adjustment
	// ablation measures its effect. It helps fabrics whose inter-switch
	// links are the scarce resource (BiGraph: 37 -> 31 steps) and hurts
	// fabrics with abundant spine paths (Fat-Tree: deep same-switch
	// chains double the steps), which is why Auto tries both.
	ShortestPathFirst bool

	// Auto builds trees with both allocation strategies and keeps the
	// better set: Build scores both schedules with the fluid engine at
	// the requested data size; BuildTrees (no size available) keeps the
	// fewer-step set. DefaultOptions enables Auto on switch-based
	// networks.
	Auto bool

	// Observer receives planner lifecycle callbacks: phase boundaries
	// with counters, per-step progress, and pipeline position. Nil (the
	// default) keeps construction observation-free: no time reads, no
	// callbacks, zero allocations added to the hot search path
	// (TestPlanObserverNilZeroAlloc). The per-search counters themselves
	// are plain integer fields and are maintained either way.
	Observer obs.PlanObserver

	// Workers bounds the goroutines of the parallel passes around tree
	// growth: the eccentricity pass behind ByRemainingHeight and the
	// lowering of the grown trees into a schedule (<= 1 means
	// sequential). Growth itself is Algorithm 1's sequential loop. The
	// schedule built and the growth counters are identical for every
	// worker count.
	Workers int
}

// DefaultOptions returns the recommended construction options for a
// topology: the paper's literal parent-order scan on direct networks
// (where every edge is one hop and the order is immaterial), and Auto on
// switch-based networks, where the better of the first-parent and
// shortest-path allocations depends on the fabric and the message size.
func DefaultOptions(topo *topology.Topology) Options {
	return Options{Auto: topo.Class() == topology.Indirect}
}

// BuildTrees runs Algorithm 1 and returns one spanning schedule tree per
// node, with per-edge all-gather time steps and allocated link paths.
func BuildTrees(topo *topology.Topology, opts Options) ([]*collective.Tree, error) {
	n := topo.Nodes()
	if n < 2 {
		return nil, fmt.Errorf("multitree: need at least 2 nodes, have %d", n)
	}
	if opts.Auto {
		return buildAuto(topo, opts)
	}
	o := opts.Observer
	if o != nil {
		o.PhaseStart(obs.PhaseTreeGrowth)
	}
	trees, counters, err := growTrees(topo, opts)
	if o != nil {
		o.PhaseEnd(obs.PhaseTreeGrowth, counters)
	}
	return trees, err
}

// buildAuto constructs trees under both allocation strategies and keeps
// the set that finishes in fewer time steps — the bandwidth-optimal
// choice. Build refines this per data size; BuildTrees without a size
// keeps the min-steps rule.
func buildAuto(topo *topology.Topology, opts Options) ([]*collective.Tree, error) {
	first, shortest, err := buildBoth(topo, opts)
	if err != nil {
		return nil, err
	}
	if shortest != nil && maxHeight(shortest) < maxHeight(first) {
		return shortest, nil
	}
	return first, nil
}

// buildBoth returns the paper-literal (first-parent) trees and, when it
// succeeds, the shortest-path-first variant.
func buildBoth(topo *topology.Topology, opts Options) (first, shortest []*collective.Tree, err error) {
	opts.Auto = false
	opts.ShortestPathFirst = false
	first, err = BuildTrees(topo, opts)
	if err != nil {
		return nil, nil, err
	}
	opts.ShortestPathFirst = true
	shortest, err = BuildTrees(topo, opts)
	if err != nil {
		return first, nil, nil // fall back to the paper-literal trees
	}
	return first, shortest, nil
}

func maxHeight(trees []*collective.Tree) int {
	h := 0
	for _, tr := range trees {
		if th := tr.Height(); th > h {
			h = th
		}
	}
	return h
}

// Build runs Algorithm 1 and lowers the trees to an executable schedule
// with reduce-scatter steps 1..tot and all-gather steps tot+1..2tot.
// With Auto set it builds both allocation variants, scores each with the
// fast fluid engine at the target size, and keeps the faster schedule:
// bushy first-parent trees win latency-bound small messages, step-minimal
// shortest-path trees win bandwidth-bound large ones — the size-threshold
// tuning NCCL applies between algorithms (footnote 1 of the paper),
// applied here between two MultiTree schedules of the same fabric. Both
// table sets fit comfortably in the NI (§V-A), so a deployment can hold
// both and select per collective size.
func Build(topo *topology.Topology, elems int, opts Options) (*collective.Schedule, error) {
	var tracker *pipelineTracker
	o := opts.Observer
	if o != nil {
		// Announce the pipeline shape up front so a progress reporter can
		// show "phase i/N" from the first step: Auto runs tree-growth and
		// lowering twice plus one variant-score pass.
		total := 2
		if opts.Auto {
			total = 5
		}
		o.Pipeline(0, total)
		tracker = &pipelineTracker{inner: o, total: total}
		opts.Observer = tracker
		o = tracker
	}
	if opts.Auto {
		first, shortest, err := buildBoth(topo, opts)
		if err != nil {
			return nil, err
		}
		sf, err := collective.TreesToScheduleParallel(Algorithm, topo, elems, first, opts.Workers, o)
		if err != nil {
			return nil, err
		}
		if shortest == nil {
			tracker.finish()
			return sf, nil
		}
		ss, err := collective.TreesToScheduleParallel(Algorithm, topo, elems, shortest, opts.Workers, o)
		if err != nil {
			return nil, err
		}
		if o != nil {
			o.PhaseStart(obs.PhaseVariantScore)
		}
		better := scoreSchedule(ss) < scoreSchedule(sf)
		if o != nil {
			o.PhaseEnd(obs.PhaseVariantScore, obs.PlanCounters{})
		}
		tracker.finish()
		if better {
			return ss, nil
		}
		return sf, nil
	}
	trees, err := BuildTrees(topo, opts)
	if err != nil {
		return nil, err
	}
	s, err := collective.TreesToScheduleParallel(Algorithm, topo, elems, trees, opts.Workers, o)
	if err == nil {
		tracker.finish()
	}
	return s, err
}

// pipelineTracker wraps the caller's observer to advance the pipeline
// position after every completed phase, so Build call sites do not thread
// a counter through the phase emit sites. Only allocated when an observer
// is attached.
type pipelineTracker struct {
	inner       obs.PlanObserver
	done, total int
}

func (p *pipelineTracker) PhaseStart(ph obs.PlanPhase) { p.inner.PhaseStart(ph) }

func (p *pipelineTracker) PhaseEnd(ph obs.PlanPhase, c obs.PlanCounters) {
	p.inner.PhaseEnd(ph, c)
	if p.done < p.total {
		p.done++
	}
	p.inner.Pipeline(p.done, p.total)
}

func (p *pipelineTracker) PlanProgress(ph obs.PlanPhase, done, total int64) {
	p.inner.PlanProgress(ph, done, total)
}

func (p *pipelineTracker) Pipeline(done, total int) { p.inner.Pipeline(done, total) }

// finish snaps the pipeline to complete — the Auto fallback path runs
// fewer phases than announced. Safe on nil receivers.
func (p *pipelineTracker) finish() {
	if p == nil || p.done == p.total {
		return
	}
	p.done = p.total
	p.inner.Pipeline(p.done, p.total)
}
