package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"os"
	"sort"
	"strings"

	"multitree/internal/accel"
	"multitree/internal/algorithms"
	_ "multitree/internal/algorithms/all" // register the built-in algorithms
	"multitree/internal/collective"
	"multitree/internal/core"
	"multitree/internal/experiments"
	"multitree/internal/model"
	"multitree/internal/network"
	"multitree/internal/ni"
	"multitree/internal/plancache"
	"multitree/internal/topology"
	"multitree/internal/topospec"
	"multitree/internal/training"
)

// plannerWorkers is the planner and decode parallelism of every build, at
// most the two cores the benchmark's single client may use.
const plannerWorkers = 2

// verifyElems is the gradient length of the setup correctness pre-check.
const verifyElems = 4096

// workload is one named input set. setup builds its fixture — topologies,
// correctness pre-checks, caches — and is what setup_s times. procs is the
// number of goroutines an op runs, and the run's GOMAXPROCS (at most the
// core count): the simulations run on one, the planner on plannerWorkers.
// passSeconds is one timed pass's duration on the reference host
// (bench/README.md); a run makes round(--seconds / passSeconds) passes, at
// least one, so its op count is fixed by --seconds and not by the host's
// speed.
type workload struct {
	name        string
	procs       int
	passSeconds float64
	setup       func(env) (*fixture, error)
}

// env is what a workload's setup takes from the run.
type env struct {
	toy    bool   // test scale: tiny fabrics, one size
	tmpDir string // parent of any directory the workload creates
}

// op is one timed operation. run returns a function that fingerprints
// the op's outputs; it, prep and check run outside the timed region, and
// repeats of a key must reproduce the fingerprint.
type op struct {
	key   string
	prep  func() error
	run   func(t *tracer) (fingerprint func() string, err error)
	check func() error
}

// fixture is a set-up workload. warmup are the untimed ops set-up ends
// with. pass returns one pass of ops in seeded order; every pass holds the
// same op mix, so a run's work does not depend on the seed. probe, if set,
// returns the ops peak_live_heap_mb is measured on after the timed passes;
// by default they are the warm-up ops. outputs, if set, returns extra
// result identities folded into sim_digest.
type fixture struct {
	warmup  []op
	pass    func(rng *rand.Rand) []op
	probe   func() []op
	outputs func() []string
	close   func()
}

var workloads = []workload{
	{"allreduce-packet", 1, 5.6, allreducePacket},
	{"training-fig11", 1, 4.8, trainingFig11},
	{"fabric-mesh16", plannerWorkers, 1.6, fabricMesh16},
	{"plan-serve-mesh32", plannerWorkers, 20, planServeMesh32},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// allreducePacket is Fig. 9a on the packet engine: every variant of the
// paper's menu at every size, schedule built per op as the CLI does.
// Nearly all time is in the packet engine and the event core; the planner
// is milliseconds and neither the cache nor the fluid engine runs. The
// warm-up and the heap probe run every variant at the smallest size: a
// schedule's and a result's size do not depend on the all-reduce size.
func allreducePacket(e env) (*fixture, error) {
	spec, sizes := "torus-8x8", []int64{32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20}
	if e.toy {
		spec, sizes = "torus-4x4", sizes[:1]
	}
	topo, err := topospec.Parse(spec)
	if err != nil {
		return nil, err
	}
	if err := verifyAlgorithms(topo); err != nil {
		return nil, err
	}
	fx := &fixture{}
	var ops []op
	for _, alg := range experiments.Fig11Algorithms() {
		for _, size := range sizes {
			elems := int(size / collective.WordSize)
			o := op{
				key: fmt.Sprintf("%s/%dKiB", alg.Name, size>>10),
				run: func(t *tracer) (func() string, error) {
					s, err := build(t, topo, alg.Name, elems, algorithms.Options{})
					if err != nil {
						return nil, err
					}
					res, err := simulate(t, s, netConfig(alg.Msg), true)
					if err != nil {
						return nil, err
					}
					return func() string { return resultDigest(res) }, nil
				},
			}
			ops = append(ops, o)
			if size == sizes[0] {
				fx.warmup = append(fx.warmup, o)
			}
		}
	}
	fx.pass = shuffled(ops)
	return fx, nil
}

// trainingFig11 is the Fig. 11 study on the paper's 8x8 torus: one op is
// one (model, algorithm) pair, simulated as a non-overlapped (11a) and an
// overlapped layer-wise (11b) iteration. That is thousands of small fluid
// simulations and per-layer lowerings; MultiTree's trees are grown once at
// setup, as experiments.builderFor does, so tree growth is off the timed
// path. The warm-up and the heap probe run every algorithm on the zoo's
// first model.
func trainingFig11(e env) (*fixture, error) {
	spec, nets := "torus-8x8", model.Zoo()
	if e.toy {
		spec, nets = "torus-4x4", nets[:1]
	}
	topo, err := topospec.Parse(spec)
	if err != nil {
		return nil, err
	}
	if err := verifyAlgorithms(topo); err != nil {
		return nil, err
	}
	trees, err := core.BuildTrees(topo, core.DefaultOptions(topo))
	if err != nil {
		return nil, err
	}
	fx := &fixture{}
	var ops []op
	for i, net := range nets {
		for _, alg := range experiments.Fig11Algorithms() {
			o := op{
				key: net.Name + "/" + alg.Name,
				run: func(t *tracer) (func() string, error) {
					cfg := training.Config{
						Topo:         topo,
						Accel:        accel.Default(),
						BatchPerNode: 16,
						Net:          netConfig(alg.Msg),
						Build:        trainingBuilder(t, alg, trees),
						Engine: func(s *collective.Schedule, c network.Config) (*network.Result, error) {
							return simulate(t, s, c, false)
						},
					}
					t.begin(spanTraining)
					a, err := cfg.NonOverlapped(net)
					t.end(spanTraining)
					if err != nil {
						return nil, err
					}
					t.begin(spanTraining)
					b, err := cfg.Overlapped(net)
					t.end(spanTraining)
					if err != nil {
						return nil, err
					}
					return func() string { return fmt.Sprintf("%+v|%+v", a, b) }, nil
				},
			}
			ops = append(ops, o)
			if i == 0 {
				fx.warmup = append(fx.warmup, o)
			}
		}
	}
	fx.pass = shuffled(ops)
	return fx, nil
}

// trainingBuilder is the training loop's schedule seam: baselines build
// through the registry per call, MultiTree lowers the setup-time trees.
func trainingBuilder(t *tracer, alg experiments.AlgSpec, trees []*collective.Tree) training.ScheduleBuilder {
	multitree := strings.TrimSuffix(alg.Name, algorithms.MsgSuffix) == core.Algorithm
	return func(topo *topology.Topology, elems int) (*collective.Schedule, error) {
		t.add("training.allreduce_calls", 1)
		t.add("training.allreduce_bytes", float64(elems)*collective.WordSize)
		if multitree {
			return collective.TreesToScheduleObserved(core.Algorithm, topo, elems, trees, t.observer())
		}
		return build(t, topo, alg.Name, elems, algorithms.Options{})
	}
}

// fabricMesh16 is the large-fabric single-run path: a cold MultiTree plan,
// its NI table compile, and one fluid simulation with message-based flow
// control, per op. Few, huge schedules — the opposite of trainingFig11 —
// with tree growth, lowering and NI compile on one timed path. The
// warm-up and the heap probe run the smallest size.
func fabricMesh16(e env) (*fixture, error) {
	spec, sizes := "mesh-16x16", []int64{256 << 10, 1 << 20, 4 << 20}
	if e.toy {
		spec, sizes = "mesh-8x8", sizes[:1]
	}
	topo, err := topospec.Parse(spec)
	if err != nil {
		return nil, err
	}
	if err := verifyAlgorithms(topo, core.Algorithm); err != nil {
		return nil, err
	}
	var ops []op
	for _, size := range sizes {
		elems := int(size / collective.WordSize)
		ops = append(ops, op{
			key: fmt.Sprintf("%s/%dKiB", core.Algorithm, size>>10),
			run: func(t *tracer) (func() string, error) {
				s, err := build(t, topo, core.Algorithm, elems, algorithms.Options{Workers: plannerWorkers})
				if err != nil {
					return nil, err
				}
				t.begin(spanNICompile)
				tables, err := ni.CompileSchedule(s)
				t.end(spanNICompile)
				if err != nil {
					return nil, err
				}
				entries := 0
				for _, tb := range tables.PerNode {
					entries += len(tb.Entries)
				}
				t.add("ni.table_entries", float64(entries))
				res, err := simulate(t, s, network.MessageConfig(), false)
				if err != nil {
					return nil, err
				}
				transfers := len(s.Transfers)
				return func() string {
					return fmt.Sprintf("%s entries=%d transfers=%d", resultDigest(res), entries, transfers)
				}, nil
			},
		})
	}
	return &fixture{warmup: ops[:1], pass: shuffled(ops)}, nil
}

// Plan-serve's pass: planServeRequests requests for its four plans, in
// planServeBlocks blocks of back-to-back repeats of one plan. The counts
// are those of a uniform draw, whose next request repeats the last with
// probability 1/4: 99 × 1/4 ≈ 25 repeats, so 75 blocks.
const (
	planServeRequests = 100
	planServeBlocks   = 75
)

// memTierBytes caps plan-serve's decoded-plan tier. A mesh-32x32 plan
// holds ~220 MiB live, so the tier holds one plan and not two; the cap is
// fixed in bytes so a change that shrinks plans raises the hit ratio.
const memTierBytes = 400 << 20

// planServeMesh32 serves MultiTree plans through algorithms.Build with a
// disk plan cache and a decoded-plan memory tier, the only workload where
// the cache writes and reads. Every pass starts on an empty cache
// directory and tier and serves planServeRequests requests in a seeded
// order (see requestOrder): each plan's first request is a cold build that
// stores it, a block's first request otherwise loads from disk, and a
// repeat within a block hits the memory tier. That is 4 cold builds, 71
// disk loads and 25 memory hits: growth and store dominate ops_per_s, IR
// decode dominates op_p50_ms. There is no warm-up, so the cold builds stay
// timed; the pre-check's cold build warms the planner. The heap probe is a
// disk load while the memory tier holds another plan, so two plans are
// live when its decode ends.
func planServeMesh32(e env) (*fixture, error) {
	spec, sizes, memCap := "mesh-32x32", []int64{256 << 10, 512 << 10, 1 << 20, 2 << 20}, int64(memTierBytes)
	requests, blocks := planServeRequests, planServeBlocks
	if e.toy {
		spec, sizes, memCap, requests, blocks = "mesh-8x8", sizes[:3], 1<<20, 6, 5
	}
	topo, err := topospec.Parse(spec)
	if err != nil {
		return nil, err
	}
	if err := verifyAlgorithms(topo, core.Algorithm); err != nil {
		return nil, err
	}
	srv := &planServer{
		topo:    topo,
		parent:  e.tmpDir,
		memCap:  memCap,
		ref:     map[string]string{},
		checked: map[string]bool{},
	}
	pass := func(rng *rand.Rand) []op {
		order := requestOrder(rng, requests, blocks, len(sizes))
		ops := make([]op, len(order))
		for i, k := range order {
			ops[i] = srv.request(sizes[k], i == 0)
		}
		return ops
	}
	probe := func() []op {
		i := 0
		if sizes[i] == srv.last {
			i = 1
		}
		return []op{srv.request(sizes[i], false)}
	}
	return &fixture{pass: pass, probe: probe, outputs: srv.outputs, close: srv.close}, nil
}

// requestOrder draws n requests over k plans in b blocks of repeats, b ≥ k.
// Each block's plan is uniform among the plans other than the previous
// block's, redrawn until every plan appears, and the n−b repeats fall on
// uniformly drawn blocks. With a memory tier that holds the last plan
// served, every order then costs k cold builds, b−k disk loads and n−b
// memory hits; the seed moves only which plan each request names.
func requestOrder(rng *rand.Rand, n, b, k int) []int {
	keys := make([]int, b)
	for {
		seen := map[int]bool{}
		for i := range keys {
			if i == 0 {
				keys[i] = rng.IntN(k)
			} else {
				keys[i] = (keys[i-1] + 1 + rng.IntN(k-1)) % k
			}
			seen[keys[i]] = true
		}
		if len(seen) == k {
			break
		}
	}
	length := make([]int, b)
	for i := range length {
		length[i] = 1
	}
	for i := b; i < n; i++ {
		length[rng.IntN(b)]++
	}
	var out []int
	for i, key := range keys {
		for range length[i] {
			out = append(out, key)
		}
	}
	return out
}

// planServer is plan-serve's state: the pass's cache tiers and the
// byte-identity references of the plans served.
type planServer struct {
	topo   *topology.Topology
	parent string // where each pass's cache directory is made
	memCap int64

	dir   string
	cache *plancache.Cache
	mem   *plancache.MemCache
	last  int64 // size of the plan served last

	ref     map[string]string // op key -> sha256 of the first cold build's ExportBinary
	checked map[string]bool   // op key + tier already compared byte for byte
}

// reset empties both tiers: a fresh cache directory and memory tier.
func (p *planServer) reset() error {
	p.close()
	dir, err := os.MkdirTemp(p.parent, "plancache-")
	if err != nil {
		return err
	}
	cache, err := plancache.Open(dir, 0)
	if err != nil {
		os.RemoveAll(dir)
		return err
	}
	p.dir, p.cache, p.mem = dir, cache, plancache.NewMemCache(p.memCap)
	return nil
}

func (p *planServer) close() {
	if p.dir != "" {
		os.RemoveAll(p.dir)
	}
	p.dir, p.cache, p.mem = "", nil, nil
}

// request is one plan request; the first of a pass empties the tiers.
func (p *planServer) request(size int64, first bool) op {
	elems := int(size / collective.WordSize)
	key := fmt.Sprintf("%s/%dKiB", core.Algorithm, size>>10)
	var (
		got            *collective.Schedule
		diskHits, memH int64
	)
	return op{
		key: key,
		prep: func() error {
			if first {
				if err := p.reset(); err != nil {
					return err
				}
			}
			diskHits, memH = p.cache.Stats().Hits, p.mem.Stats().Hits
			return nil
		},
		run: func(t *tracer) (func() string, error) {
			s, err := build(t, p.topo, core.Algorithm, elems, algorithms.Options{
				Workers:  plannerWorkers,
				Cache:    p.cache,
				MemCache: p.mem,
			})
			if err != nil {
				return nil, err
			}
			got, p.last = s, size
			return func() string {
				return fmt.Sprintf("transfers=%d steps=%d elems=%d", len(s.Transfers), s.Steps, s.Elems)
			}, nil
		},
		check: func() error {
			s := got
			got = nil
			tier := "cold"
			switch {
			case p.mem.Stats().Hits > memH:
				tier = "mem"
			case p.cache.Stats().Hits > diskHits:
				tier = "disk"
			}
			return p.checkBytes(key, tier, s)
		},
	}
}

// checkBytes compares, once per key and tier, the served plan's binary IR
// with the first cold build's. The first cold build sets the reference.
func (p *planServer) checkBytes(key, tier string, s *collective.Schedule) error {
	ref, ok := p.ref[key]
	if ok && p.checked[key+"/"+tier] {
		return nil
	}
	h := sha256.New()
	if err := collective.ExportBinary(h, s); err != nil {
		return err
	}
	sum := hex.EncodeToString(h.Sum(nil))
	if !ok {
		p.ref[key] = sum
		return nil
	}
	p.checked[key+"/"+tier] = true
	if sum != ref {
		return fmt.Errorf("%s served from %s differs from the cold build (sha256 %s, want %s)", key, tier, sum, ref)
	}
	return nil
}

func (p *planServer) outputs() []string {
	var out []string
	for k, v := range p.ref {
		out = append(out, k+" ir="+v)
	}
	sort.Strings(out)
	return out
}

// verifyAlgorithms is the setup correctness pre-check: every algorithm the
// workload runs on topo (default: the Fig. 11 menu, whose -msg variant
// shares its base schedule) must all-reduce correctly in the float32
// interpreter at verifyElems elements.
func verifyAlgorithms(topo *topology.Topology, names ...string) error {
	if len(names) == 0 {
		names = []string{"ring", "dbtree", "2d-ring", core.Algorithm}
	}
	in := collective.RampInputs(topo.Nodes(), verifyElems)
	for _, name := range names {
		s, err := algorithms.Build(topo, name, verifyElems, algorithms.Options{Workers: plannerWorkers})
		if err != nil {
			return fmt.Errorf("pre-check %s on %s: %w", name, topo.Name(), err)
		}
		if err := collective.VerifyAllReduce(s, in); err != nil {
			return fmt.Errorf("pre-check %s on %s: %w", name, topo.Name(), err)
		}
	}
	return nil
}

// shuffled returns a pass function that yields every op once in a seeded
// order.
func shuffled(ops []op) func(*rand.Rand) []op {
	return func(rng *rand.Rand) []op {
		out := make([]op, len(ops))
		for i, j := range rng.Perm(len(ops)) {
			out[i] = ops[j]
		}
		return out
	}
}

// build is one registry build, the algorithms layer's public entry point.
func build(t *tracer, topo *topology.Topology, name string, elems int, opts algorithms.Options) (*collective.Schedule, error) {
	opts.Observer = t.observer()
	t.begin(spanBuild)
	s, err := algorithms.Build(topo, name, elems, opts)
	t.end(spanBuild)
	return s, err
}

// simulate runs one engine over s and counts its work.
func simulate(t *tracer, s *collective.Schedule, cfg network.Config, packet bool) (*network.Result, error) {
	name, engine := spanFluid, network.SimulateFluid
	if packet {
		name, engine = spanPacket, network.SimulatePackets
	}
	t.begin(name)
	res, err := engine(s, cfg)
	t.end(name)
	if err != nil {
		return nil, err
	}
	if packet {
		t.add("network.packet.runs", 1)
		t.add("network.packet.flits", float64(res.WireBytes)/float64(cfg.FlitBytes))
	} else {
		t.add("network.fluid.runs", 1)
		t.add("network.fluid.transfers", float64(len(s.Transfers)))
	}
	return res, nil
}

func netConfig(msg bool) network.Config {
	cfg := network.DefaultConfig()
	cfg.MessageBased = msg
	return cfg
}

// resultDigest fingerprints every simulated statistic of a run: completion
// time, byte totals, and each transfer's delivery and each link's busy time.
func resultDigest(r *network.Result) string {
	b := make([]byte, 0, 8*(3+len(r.TransferDone)+len(r.LinkBusy)))
	b = binary.LittleEndian.AppendUint64(b, uint64(r.Cycles))
	b = binary.LittleEndian.AppendUint64(b, uint64(r.PayloadBytes))
	b = binary.LittleEndian.AppendUint64(b, uint64(r.WireBytes))
	for _, v := range r.TransferDone {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	for _, v := range r.LinkBusy {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	sum := sha256.Sum256(b)
	return fmt.Sprintf("cycles=%d %x", r.Cycles, sum[:8])
}
