// Package algorithms is the central all-reduce algorithm registry. The
// paper's core abstraction (§IV-A) is that every all-reduce — ring, double
// binary tree, 2D-ring, HDRM, MultiTree — lowers to the same schedule-table
// form the network interface executes; this package makes the set of
// lowerings a first-class, enumerable artifact. Each algorithm package
// self-registers a constructor with the uniform signature
//
//	Build(topo, elems, opts) (*collective.Schedule, error)
//
// plus applicability predicates, and every consumer — the experiments
// harness, the public facade, and the cmd/ tools — resolves algorithms by
// name here instead of maintaining its own switch statement.
//
// Importing an algorithm package is what registers it; blank-import
// multitree/internal/algorithms/all to get the full built-in set.
package algorithms

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"multitree/internal/collective"
	"multitree/internal/obs"
	"multitree/internal/plancache"
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
	// Chunks is the pipeline depth for chunk-pipelined algorithms
	// (dbtree); <= 0 selects the algorithm's default.
	Chunks int

	// Workers bounds planner parallelism for algorithms with parallel
	// passes (multitree's eccentricities and lowering) and the section
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

// Spec describes one registered all-reduce algorithm.
type Spec struct {
	// Name is the registry key and the Schedule.Algorithm string.
	Name string

	// Order fixes the paper's plotting order (Fig. 9 legends); listings
	// sort by it so the menu does not depend on package-init order.
	Order int

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

	// Note is a one-line applicability description for usage strings.
	Note string
}

// featured resolves the Featured predicate with its Supports default.
func (s Spec) featured(topo *topology.Topology) bool {
	if s.Featured != nil {
		return s.Featured(topo)
	}
	return s.Supports(topo)
}

var (
	mu       sync.RWMutex
	registry = map[string]Spec{}
)

// Register adds an algorithm to the registry. It panics on a duplicate or
// malformed Spec — registration happens in package init, where a panic is
// an immediate, loud programming error.
func Register(s Spec) {
	if s.Name == "" || s.Build == nil || s.Supports == nil {
		panic("algorithms: Register needs Name, Build and Supports")
	}
	if strings.HasSuffix(s.Name, MsgSuffix) {
		panic(fmt.Sprintf("algorithms: %q collides with the %s variant namespace", s.Name, MsgSuffix))
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := registry[s.Name]; dup {
		panic(fmt.Sprintf("algorithms: %q registered twice", s.Name))
	}
	registry[s.Name] = s
}

// Lookup returns the named algorithm's Spec.
func Lookup(name string) (Spec, bool) {
	mu.RLock()
	defer mu.RUnlock()
	s, ok := registry[name]
	return s, ok
}

// Resolve returns the Spec behind a report name, accepting the MsgSuffix
// variant of any registered algorithm ("multitree-msg" resolves to
// "multitree"; msg reports whether the suffix was present). Unknown names
// return an error that lists the registered set.
func Resolve(name string) (spec Spec, msg bool, err error) {
	base := strings.TrimSuffix(name, MsgSuffix)
	spec, ok := Lookup(base)
	if !ok {
		return Spec{}, false, fmt.Errorf("algorithms: unknown algorithm %q (have %s)",
			name, strings.Join(Names(), ", "))
	}
	return spec, base != name, nil
}

// Specs returns all registered algorithms in plotting order.
func Specs() []Spec {
	mu.RLock()
	out := make([]Spec, 0, len(registry))
	for _, s := range registry {
		out = append(out, s)
	}
	mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Order != out[j].Order {
			return out[i].Order < out[j].Order
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Names returns the registered algorithm names in plotting order.
func Names() []string {
	specs := Specs()
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
	for _, s := range Specs() {
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
	for _, s := range Specs() {
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
// reported to opts.Observer under obs.PhaseCacheLookup.
func Build(topo *topology.Topology, name string, elems int, opts Options) (*collective.Schedule, error) {
	spec, _, err := Resolve(name)
	if err != nil {
		return nil, err
	}
	if opts.Cache == nil && opts.MemCache == nil {
		return spec.Build(topo, elems, opts)
	}
	key := plancache.Key(topo, spec.Name, elems, opts.Chunks)
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
		got, n, ok := opts.Cache.GetOpts(key, topo, plancache.GetOptions{
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
