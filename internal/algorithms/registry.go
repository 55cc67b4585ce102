// Package algorithms is the central all-reduce algorithm registry. The
// paper's core abstraction (§IV-A) is that every all-reduce — ring, double
// binary tree, 2D-ring, HDRM, MultiTree — lowers to the same schedule-table
// form the network interface executes; this package makes the set of
// lowerings a first-class, enumerable artifact. The registry is one table
// in the paper's plotting order (Fig. 9 legends): each entry pairs a name
// with a constructor of the uniform signature
//
//	Build(topo, elems, opts) (*collective.Schedule, error)
//
// and its applicability predicates, and every consumer — the experiments
// harness, the public facade, and the cmd/ tools — resolves algorithms by
// name here instead of maintaining its own switch statement.
package algorithms

import (
	"fmt"
	"strings"

	"multitree/internal/collective"
	"multitree/internal/core"
	"multitree/internal/dbtree"
	"multitree/internal/hdrm"
	"multitree/internal/obs"
	"multitree/internal/plancache"
	"multitree/internal/ring"
	"multitree/internal/ring2d"
	"multitree/internal/topology"
)

// MsgSuffix marks the message-based flow-control variant of an algorithm
// (§IV-B). The variant shares the base algorithm's schedule; only the
// simulator's flow-control configuration differs, so Resolve strips it
// before lookup.
const MsgSuffix = "-msg"

// Options carries per-build tuning knobs shared by all constructors.
// Algorithms ignore fields that do not apply to them; the zero value
// selects every algorithm's defaults.
type Options struct {
	// Workers bounds planner parallelism for algorithms with parallel
	// passes (multitree's lowering) and the chunk
	// decode of cached plans; <= 1 means sequential. The schedule built
	// is identical for every value.
	Workers int

	// Cache, when non-nil, is probed before construction and updated
	// after it (see Build). Only schedule-shaping inputs enter the cache
	// key; Workers and Observer do not.
	Cache *plancache.Cache

	// MemCache, when non-nil, is the in-process decoded-plan tier probed
	// before Cache: a hit returns the already-materialized schedule and
	// skips the disk read, decode, and verification entirely. Both cache
	// tiers share one content address. Schedules served from it are
	// shared across callers and must be treated as read-only.
	MemCache *plancache.MemCache

	// Observer receives planner lifecycle callbacks (phase wall time,
	// counters, progress) from algorithms that support them; nil keeps
	// construction observation-free. Algorithms whose construction is
	// trivial may ignore it.
	Observer obs.PlanObserver
}

// Builder constructs an algorithm's schedule for elems gradient elements
// on a topology.
type Builder func(topo *topology.Topology, elems int, opts Options) (*collective.Schedule, error)

// Spec describes one all-reduce algorithm in the registry table.
type Spec struct {
	// Name is the registry key and the Schedule.Algorithm string.
	Name string

	// Build constructs the schedule. It must fail with an error — never
	// panic — on topologies it does not support.
	Build Builder

	// Supports reports whether Build can produce a schedule on the
	// topology (e.g. HDRM needs a power-of-two node count).
	Supports func(*topology.Topology) bool

	// Featured reports whether the algorithm belongs on the paper's
	// evaluation menu for the topology (e.g. HDRM is plotted only on
	// switch-based EFLOPS-style fabrics even though it builds anywhere
	// with 2^k nodes). Nil means Featured == Supports.
	Featured func(*topology.Topology) bool
}

// featured resolves the Featured predicate with its Supports default.
func (s Spec) featured(topo *topology.Topology) bool {
	if s.Featured != nil {
		return s.Featured(topo)
	}
	return s.Supports(topo)
}

// atLeastTwo admits any topology with two or more nodes.
func atLeastTwo(topo *topology.Topology) bool { return topo.Nodes() >= 2 }

// powerOfTwo admits topologies with 2^k >= 2 nodes.
func powerOfTwo(topo *topology.Topology) bool {
	n := topo.Nodes()
	return n >= 2 && n&(n-1) == 0
}

// specs is the registry in the paper's plotting order. Names must be
// unique and must not end in MsgSuffix.
var specs = []Spec{
	{
		// Bandwidth-optimal ring on any connected topology.
		Name: ring.Algorithm,
		Build: func(topo *topology.Topology, elems int, _ Options) (*collective.Schedule, error) {
			return ring.Build(topo, elems), nil
		},
		Supports: atLeastTwo,
	},
	{
		// NCCL-style double binary tree; topology-oblivious.
		Name: dbtree.Algorithm,
		Build: func(topo *topology.Topology, elems int, _ Options) (*collective.Schedule, error) {
			return dbtree.Build(topo, elems, dbtree.DefaultPipelineChunks)
		},
		Supports: atLeastTwo,
	},
	{
		// TPU-pod 2D-Ring needs grid coordinates (Mesh or Torus).
		Name: ring2d.Algorithm,
		Build: func(topo *topology.Topology, elems int, _ Options) (*collective.Schedule, error) {
			return ring2d.Build(topo, elems)
		},
		Supports: func(topo *topology.Topology) bool {
			nx, _ := topo.GridDims()
			return nx > 0
		},
	},
	{
		// EFLOPS halving-doubling with rank mapping builds on any 2^k node
		// count (degrading to plain halving-doubling away from BiGraph),
		// but the paper's menu features it only on switch-based fabrics.
		Name: hdrm.Algorithm,
		Build: func(topo *topology.Topology, elems int, _ Options) (*collective.Schedule, error) {
			return hdrm.Build(topo, elems)
		},
		Supports: powerOfTwo,
		Featured: func(topo *topology.Topology) bool {
			return powerOfTwo(topo) && topo.Class() == topology.Indirect
		},
	},
	{
		// The paper's MultiTree; Algorithm 1 is topology-agnostic.
		Name: core.Algorithm,
		Build: func(topo *topology.Topology, elems int, aopts Options) (*collective.Schedule, error) {
			opts := core.DefaultOptions(topo)
			opts.Observer = aopts.Observer
			opts.Workers = aopts.Workers
			return core.Build(topo, elems, opts)
		},
		Supports: atLeastTwo,
	},
}

// Lookup returns the named algorithm's Spec.
func Lookup(name string) (Spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Resolve returns the Spec behind a report name, accepting the MsgSuffix
// variant of any algorithm in the table ("multitree-msg" resolves to
// "multitree"; msg reports whether the suffix was present). Unknown names
// return an error that lists the table.
func Resolve(name string) (spec Spec, msg bool, err error) {
	base := strings.TrimSuffix(name, MsgSuffix)
	spec, ok := Lookup(base)
	if !ok {
		return Spec{}, false, fmt.Errorf("algorithms: unknown algorithm %q (have %s)",
			name, strings.Join(Names(), ", "))
	}
	return spec, base != name, nil
}

// Names returns the algorithm names in plotting order.
func Names() []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// For returns the algorithms featured on a topology's evaluation menu, in
// plotting order.
func For(topo *topology.Topology) []Spec {
	var out []Spec
	for _, s := range specs {
		if s.featured(topo) {
			out = append(out, s)
		}
	}
	return out
}

// Supporting returns every algorithm whose Supports predicate admits the
// topology (a superset of For: it includes buildable-but-unfeatured
// pairings such as HDRM on a 16-node torus).
func Supporting(topo *topology.Topology) []Spec {
	var out []Spec
	for _, s := range specs {
		if s.Supports(topo) {
			out = append(out, s)
		}
	}
	return out
}

// Build resolves name (MsgSuffix variants included) and constructs its
// schedule. With a cache tier set, the tiers are probed in cost order —
// MemCache (already decoded) first, then Cache (on-disk IR, decoded with
// opts.Workers-way fan-out) — keyed by the base algorithm name, so
// "multitree" and "multitree-msg" share one entry (they build identical
// schedules; only the simulator's flow control differs). A miss builds
// fresh and stores back into every configured tier. Cache traffic is
// reported to opts.Observer under obs.PhaseCacheLookup. Fewer than one
// element (a data size below collective.WordSize bytes) is an error.
func Build(topo *topology.Topology, name string, elems int, opts Options) (*collective.Schedule, error) {
	spec, _, err := Resolve(name)
	if err != nil {
		return nil, err
	}
	if elems < 1 {
		return nil, fmt.Errorf("algorithms: %s needs at least one %d-byte element, got %d", name, collective.WordSize, elems)
	}
	if opts.Cache == nil && opts.MemCache == nil {
		return spec.Build(topo, elems, opts)
	}
	key := plancache.Key(topo, spec.Name, elems)
	o := opts.Observer
	if o != nil {
		o.PhaseStart(obs.PhaseCacheLookup)
	}
	var memMiss int64
	if opts.MemCache != nil {
		if s, ok := opts.MemCache.Get(key); ok {
			if o != nil {
				o.PhaseEnd(obs.PhaseCacheLookup, obs.PlanCounters{CacheHits: 1, MemCacheHits: 1})
			}
			return s, nil
		}
		memMiss = 1
	}
	if opts.Cache != nil {
		got, n, ok := opts.Cache.Get(key, topo, plancache.GetOptions{
			Observer: o,
			Workers:  opts.Workers,
		})
		if ok {
			if o != nil {
				o.PhaseEnd(obs.PhaseCacheLookup, obs.PlanCounters{CacheHits: 1, CacheBytes: n, MemCacheMisses: memMiss})
			}
			opts.MemCache.Put(key, got) // nil-safe: promote disk hits to the memory tier
			return got, nil
		}
	}
	if o != nil {
		o.PhaseEnd(obs.PhaseCacheLookup, obs.PlanCounters{CacheMisses: 1, MemCacheMisses: memMiss})
	}
	s, err := spec.Build(topo, elems, opts)
	if err != nil {
		return nil, err
	}
	// Best-effort store: a failed Put is logged by the cache and costs a
	// rebuild next run, never this one. Fresh builds enter both tiers.
	if o != nil {
		o.PhaseStart(obs.PhaseCacheLookup)
	}
	var n int64
	if opts.Cache != nil {
		n, _ = opts.Cache.Put(key, s)
	}
	opts.MemCache.Put(key, s)
	if o != nil {
		o.PhaseEnd(obs.PhaseCacheLookup, obs.PlanCounters{CacheBytes: n})
	}
	return s, nil
}
