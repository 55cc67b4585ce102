package network

import (
	"math"
	"slices"
	"strings"

	"multitree/internal/collective"
	"multitree/internal/faults"
	"multitree/internal/obs"
	"multitree/internal/sim"
	"multitree/internal/topology"
)

// SimulateFluid executes an all-reduce schedule with the flow-level
// engine: each transfer, once its dependencies (and, under lockstep, its
// node's time step) allow, becomes a fluid flow across its routed links;
// concurrent flows share each link max-min fairly; a flow's payload is
// delivered one path-latency after its last byte is injected (virtual
// cut-through pipelining). Head-flit overhead inflates the on-wire volume
// per Config.WireBytes.
func SimulateFluid(s *collective.Schedule, cfg Config) (*Result, error) {
	fs, err := NewFluidSim(s, cfg)
	if err != nil {
		return nil, err
	}
	return fs.Run()
}

// FluidSim is a reusable flow-level simulator for one schedule and
// configuration, the fluid counterpart of PacketSim. Run may be called
// repeatedly: every run resets the mutable state but keeps all backing
// storage (arrival FIFOs, step and fault heap, rate scratch arrays), so
// steady-state re-simulation performs zero heap allocations (see
// TestFluidEngineSteadyStateAllocs). Runs are deterministic and
// cycle-identical to each other and to a fresh SimulateFluid.
type FluidSim struct {
	st fluidState
}

// NewFluidSim validates the configuration and builds the immutable
// schedule-derived state (dependency graph, per-transfer paths and wire
// volumes, lockstep step lists, byte totals, dense per-link scratch).
func NewFluidSim(s *collective.Schedule, cfg Config) (*FluidSim, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	flt, err := faults.Compile(cfg.Faults, s.Topo)
	if err != nil {
		return nil, err
	}
	fs := &FluidSim{}
	fs.st.init(s, cfg, flt)
	return fs, nil
}

// Run simulates the schedule and returns the result. The returned Result
// is owned by the simulator and overwritten by the next Run; callers that
// keep results across runs must copy them.
func (fs *FluidSim) Run() (*Result, error) {
	return fs.st.run()
}

// fluidFlow is the per-transfer simulation state.
type fluidFlow struct {
	path    []topology.LinkID
	wire    float64 // total on-wire bytes
	rem     float64 // bytes not yet injected
	rate    float64
	latency float64 // path latency in cycles
	start   float64 // activation time, for trace spans

	step  int32 // lockstep step, cached from the transfer
	state flowState
}

type flowState uint8

const (
	fsWaiting  flowState = iota // not yet issued, or issued and queued in ready
	fsActive                    // injecting
	fsInFlight                  // injected, traversing the path or delivered
)

// timedEvent is a transfer arrival (delivery), a node step entry, or a
// fault activation.
type timedEvent struct {
	at   float64
	kind uint8 // tevArrival, tevStepEntry or tevFault
	id   int32 // transfer id, node id, or fault-change index
}

const (
	tevArrival   = iota // transfer delivery at its destination
	tevStepEntry        // deferred lockstep step entry
	tevFault            // fault activation (Config.Faults)
)

// tevLess is a total order (at, kind, id), not just by time: a heap gives
// equal keys an unspecified pop order, so ties must be broken for runs to
// be bit-identical. Arrivals sort before step entries at the same instant
// deliberately — a delivery at time t clears its dependents' dependencies
// before any step gate opening at t scans for releasable transfers,
// matching the packet engine, where the (at, seq) core fires the
// earlier-scheduled arrival first. Fault activations come last so rate
// changes never retroactively affect a same-instant delivery.
func tevLess(a, b timedEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.id < b.id
}

// tevHeap is a value-based 4-ary min-heap of timed events, mirroring
// internal/sim's engine heap: no container/heap interface, no `any`
// boxing, backing array reused across runs via reset. Because tevLess is
// a strict total order, the pop sequence is the fully sorted event order
// regardless of heap arity.
type tevHeap struct {
	ev []timedEvent
}

func (h *tevHeap) len() int { return len(h.ev) }
func (h *tevHeap) reset()   { h.ev = h.ev[:0] }

func (h *tevHeap) push(e timedEvent) {
	h.ev = append(h.ev, e)
	i := len(h.ev) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !tevLess(h.ev[i], h.ev[p]) {
			break
		}
		h.ev[i], h.ev[p] = h.ev[p], h.ev[i]
		i = p
	}
}

func (h *tevHeap) pop() timedEvent {
	top := h.ev[0]
	last := len(h.ev) - 1
	h.ev[0] = h.ev[last]
	h.ev = h.ev[:last]
	if last > 0 {
		h.siftDown(0)
	}
	return top
}

func (h *tevHeap) siftDown(i int) {
	n := len(h.ev)
	for {
		c := i<<2 + 1
		if c >= n {
			return
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if tevLess(h.ev[j], h.ev[best]) {
				best = j
			}
		}
		if !tevLess(h.ev[best], h.ev[i]) {
			return
		}
		h.ev[i], h.ev[best] = h.ev[best], h.ev[i]
		i = best
	}
}

// arrivalFIFO holds the pending arrivals of one latency, as parallel
// arrays of times and transfer ids. Every arrival is pushed at now plus
// its latency and now never decreases, so one latency's arrivals
// come in time order; only arrivals at the same instant can come out of
// id order. The tail's same-instant run starts at run, and unsorted
// marks it as pushed out of id order: its ids are sorted once, before
// the first of them is popped or a later instant is pushed.
type arrivalFIFO struct {
	lat      float64 // the arrivals' latency in cycles
	at       []float64
	id       []int32
	head     int // first pending entry
	run      int // start of the tail's same-instant run
	unsorted bool
}

func (q *arrivalFIFO) reset() {
	q.at, q.id, q.head, q.run, q.unsorted = q.at[:0], q.id[:0], 0, 0, false
}

func (q *arrivalFIFO) push(at float64, id int32) {
	n := len(q.at)
	if n > q.head && q.at[n-1] == at {
		q.unsorted = q.unsorted || id < q.id[n-1]
	} else {
		q.sortRun()
		q.run = n
	}
	if n == cap(q.at) && 2*q.head >= n {
		// At least half the array is popped: slide the pending entries
		// down instead of growing, so the backing arrays stay within a
		// small factor of the high-water pending count.
		n = copy(q.at, q.at[q.head:])
		copy(q.id, q.id[q.head:])
		q.at, q.id = q.at[:n], q.id[:n]
		q.run = max(q.run-q.head, 0)
		q.head = 0
	}
	q.at = append(q.at, at)
	q.id = append(q.id, id)
}

// sortRun puts the pending part of an unsorted tail run in id order.
func (q *arrivalFIFO) sortRun() {
	if q.unsorted {
		q.unsorted = false
		slices.Sort(q.id[max(q.head, q.run):])
	}
}

// front returns the least pending entry; the FIFO must not be empty.
func (q *arrivalFIFO) front() timedEvent {
	if q.head >= q.run {
		q.sortRun()
	}
	return timedEvent{at: q.at[q.head], kind: tevArrival, id: q.id[q.head]}
}

func (q *arrivalFIFO) pop() {
	q.head++
	if q.head == len(q.at) {
		q.reset()
	}
}

// tevQueue holds the fluid engine's timed events: one FIFO per distinct
// arrival latency, and a heap for step entries and faults. Pops merge the
// FIFO heads with the heap root by tevLess, as internal/sim merges its
// timing wheel with its heap, so the pop sequence is the sorted event
// order. Each push and each front scans the FIFOs, which a schedule's
// few distinct path latencies keep short. The FIFOs and every backing array
// survive reset.
type tevQueue struct {
	heap  tevHeap
	fifos []arrivalFIFO
}

func (q *tevQueue) reset() {
	q.heap.reset()
	for i := range q.fifos {
		q.fifos[i].reset()
	}
}

// pushArrival queues transfer id's arrival at time at, lat after it was
// injected, in the FIFO of latency lat.
func (q *tevQueue) pushArrival(at, lat float64, id int32) {
	for i := range q.fifos {
		if q.fifos[i].lat == lat {
			q.fifos[i].push(at, id)
			return
		}
	}
	q.fifos = append(q.fifos, arrivalFIFO{lat: lat})
	q.fifos[len(q.fifos)-1].push(at, id)
}

// front returns the least pending event and where it waits: a FIFO
// index, or -1 for the heap. ok is false when no event is pending.
func (q *tevQueue) front() (e timedEvent, src int, ok bool) {
	src = -1
	if ok = q.heap.len() > 0; ok {
		e = q.heap.ev[0]
	}
	for i := range q.fifos {
		f := &q.fifos[i]
		if f.head == len(f.at) {
			continue
		}
		if h := f.front(); !ok || tevLess(h, e) {
			e, src, ok = h, i, true
		}
	}
	return e, src, ok
}

// pop removes the front event, which front reported waiting at src.
func (q *tevQueue) pop(src int) {
	if src < 0 {
		q.heap.pop()
		return
	}
	q.fifos[src].pop()
}

type fluidState struct {
	s   *collective.Schedule
	cfg Config
	tr  obs.Tracer
	flt *faults.Compiled
	now float64

	flows  []fluidFlow
	fe     frontEnd[float64]
	busy   []float64 // fractional busy time per link, rounded once at report
	linkBW []float64 // base link bandwidths, cached from the topology

	active []int32 // indices of fsActive flows
	// ready holds the transfers the front end has issued, as readyKeys;
	// the next activateReady promotes them in readiness order.
	ready      []uint64
	still      []uint64 // releases deferred to the next pass; ping-ponged with ready
	ratesDirty bool

	events tevQueue

	// Activation-order bookkeeping under lockstep. Releases must reach
	// activateReady in readiness order, which is the order a rescan of
	// every ready transfer would visit them in.
	passSeq       int32 // sequence number of the transfer being promoted; -1 between passes
	readyUnsorted bool  // ready may be out of readiness order

	res          *Result
	payloadTotal int64
	wireTotal    int64

	// Incremental rate registers, maintained on flow activate/retire:
	// cnt[l] counts path occurrences of active flows on link l, and
	// shared counts the links with cnt[l] >= 2.
	cnt    []int32
	shared int

	// soloRate is the rate of a flow that has every link of its path to
	// itself: the common link bandwidth when the fabric's links all have
	// one bandwidth, no fault plan can move it and every transfer that
	// carries bytes is routed over at least one link; 0 otherwise, which
	// disables the closed form in recomputeRates.
	soloRate float64

	// Rate-fill scratch, epoch-stamped instead of cleared: fillEpoch[l]
	// == epoch marks link l's entries as written by the current pass.
	// The step filter's pass writes minStep[l], the minimum lockstep step
	// among the active flows on l; progressive filling then bumps the
	// epoch for remCap/fillCnt[l], and touched lists exactly its links.
	epoch     uint64
	fillEpoch []uint64
	minStep   []int32
	remCap    []float64
	fillCnt   []int32
	touched   []int32
	eligible  []int32
	frozen    []bool

	noIncremental bool // test knob: force full progressive filling
	soloFills     int  // recomputes served by the closed form this run, for tests
}

const fluidEps = 1e-6

// newFluidState builds a fully seeded state, equivalent to what a fresh
// Run observes right before its event loop. Kept as an entry point for
// white-box tests.
func newFluidState(s *collective.Schedule, cfg Config, flt *faults.Compiled) *fluidState {
	st := &fluidState{}
	st.init(s, cfg, flt)
	st.reset()
	st.seed()
	return st
}

// init builds the immutable schedule-derived state. Everything here is
// computed once per FluidSim and only read by run/reset/seed.
func (st *fluidState) init(s *collective.Schedule, cfg Config, flt *faults.Compiled) {
	n := len(s.Transfers)
	nLinks := len(s.Topo.Links())
	st.s, st.cfg, st.tr, st.flt = s, cfg, cfg.Tracer, flt
	st.flows = make([]fluidFlow, n)
	st.busy = make([]float64, nLinks)
	st.cnt = make([]int32, nLinks)
	st.fillEpoch = make([]uint64, nLinks)
	st.minStep = make([]int32, nLinks)
	st.remCap = make([]float64, nLinks)
	st.fillCnt = make([]int32, nLinks)
	st.res = &Result{
		TransferDone: make([]sim.Time, n),
		LinkBusy:     make([]sim.Time, nLinks),
	}

	st.linkBW = make([]float64, nLinks)
	maxWire, minBW, maxBW := 0.0, math.Inf(1), 0.0
	for i, l := range s.Topo.Links() {
		st.linkBW[i] = l.Bandwidth
		minBW = min(minBW, l.Bandwidth)
		maxBW = max(maxBW, l.Bandwidth)
	}
	if flt == nil && minBW == maxBW {
		st.soloRate = maxBW
	}
	// Unpinned transfers repeat a few (src, dst) pairs many times over:
	// route each pair once, as PathOf would.
	var routes map[uint64][]topology.LinkID
	for i := range s.Transfers {
		t := &s.Transfers[i]
		f := &st.flows[i]
		if f.path = s.Path(i); len(f.path) == 0 {
			if routes == nil {
				routes = make(map[uint64][]topology.LinkID)
			}
			key := uint64(uint32(t.Src))<<32 | uint64(uint32(t.Dst))
			p, ok := routes[key]
			if !ok {
				p = s.Topo.Route(t.Src, t.Dst)
				routes[key] = p
			}
			f.path = p
		}
		f.latency = float64(s.Topo.PathLatency(f.path))
		f.wire = float64(cfg.WireBytes(s.Bytes(t)))
		f.step = t.Step
		if f.wire > maxWire {
			maxWire = f.wire
		}
		if len(f.path) == 0 && f.wire > fluidEps {
			st.soloRate = 0 // a self-transfer has no link to fill: it stalls at rate 0
		}
		st.payloadTotal += s.Bytes(t)
		st.wireTotal += int64(f.wire)
	}
	var ls *lockstep[float64]
	if cfg.Lockstep {
		ls = newLockstep(s, maxWire/minBW)
	}
	st.fe.init(s, cfg.Tracer, st, ls)
}

// reset restores the mutable state for a fresh deterministic run while
// keeping every backing array at its high-water capacity. The fill epoch
// deliberately survives: its stamp array holds stale epochs that simply
// never match again.
func (st *fluidState) reset() {
	st.now = 0
	st.ratesDirty = false
	st.soloFills = 0
	st.passSeq = -1
	st.readyUnsorted = false
	for i := range st.flows {
		f := &st.flows[i]
		f.rem = f.wire
		f.rate = 0
		f.start = 0
		f.state = fsWaiting
	}
	for i := range st.busy {
		st.busy[i] = 0
	}
	st.active = st.active[:0]
	st.ready = st.ready[:0]
	st.still = st.still[:0]
	st.events.reset()
	for i := range st.cnt {
		st.cnt[i] = 0
	}
	st.shared = 0
	st.fe.reset()
	st.res.Cycles = 0
	st.res.PayloadBytes = st.payloadTotal
	st.res.WireBytes = st.wireTotal
	for i := range st.res.TransferDone {
		st.res.TransferDone[i] = 0
	}
	for i := range st.res.LinkBusy {
		st.res.LinkBusy[i] = 0
	}
}

// seed arms the fault timeline, enters each node's first lockstep step,
// releases dependency-free transfers and computes the initial rates.
func (st *fluidState) seed() {
	if st.flt != nil {
		for i, ch := range st.flt.Changes() {
			st.events.heap.push(timedEvent{at: float64(ch.At), kind: tevFault, id: int32(i)})
		}
	}
	if ls := st.fe.ls; ls != nil {
		for node := range ls.clocks {
			if at, ok := ls.firstEntry(node); ok {
				st.enterStep(node, at)
			}
		}
	}
	for i, x := range st.fe.xf {
		if x.deps == 0 {
			st.fe.ready(int32(i), st.now)
		}
	}
	st.activateReady()
	st.recomputeRates()
}

// run is the engine's event loop, shared by SimulateFluid and FluidSim.
func (st *fluidState) run() (*Result, error) {
	st.reset()
	res := st.res
	n := len(st.flows)
	if n == 0 {
		return res, nil
	}
	st.seed()

	for st.fe.done < n {
		tNext := st.nextEventTime()
		if math.IsInf(tNext, 1) {
			return nil, st.fe.stallError("fluid")
		}
		st.advanceTo(tNext)
		st.processInjections(res)
		st.processTimed(res)
		st.activateReady()
		if st.ratesDirty {
			st.recomputeRates()
		}
	}
	res.Cycles = sim.Time(math.Ceil(st.now))
	// Busy time accumulates fractionally per flow and rounds once here, so
	// rounding error stays below one cycle per link however many transfers
	// crossed it (the per-transfer Ceil it replaces skewed utilization
	// against the packet engine as transfer counts grew). The epsilon keeps
	// float accumulation from pushing an exact integer over the ceiling.
	for l, b := range st.busy {
		if b > fluidEps {
			res.LinkBusy[l] = sim.Time(math.Ceil(b - fluidEps))
		}
	}
	return res, nil
}

// enterStep moves node into its next active step at time at, which NOP
// gaps may put in the future; a timed event then defers the entry.
func (st *fluidState) enterStep(node int, at float64) {
	if at > st.now+fluidEps {
		st.events.heap.push(timedEvent{at: at, kind: tevStepEntry, id: int32(node)})
		return
	}
	st.fe.enterStep(node, st.now)
}

// issue queues transfer id, which the front end has released, for the
// next activation pass. During a pass, a step entry's releases keep the
// order a rescan of every ready transfer would have found them in: one
// later in readiness order than the transfer being promoted joins this
// pass, an earlier one (the rescan has already passed it) waits for the
// next.
func (st *fluidState) issue(id int32) {
	key := st.fe.readyKey(id)
	if st.fe.xf[id].seq < st.passSeq {
		st.still = append(st.still, key)
		return
	}
	if n := len(st.ready); n > 0 && key < st.ready[n-1] {
		st.readyUnsorted = true
	}
	st.ready = append(st.ready, key)
}

// activateReady promotes the ready transfers, in readiness order, into
// active flows (or, for zero-byte flows, straight to in-flight). A
// zero-byte injection can open another step gate mid-pass; issue then
// appends to ready (re-sorted before the next promotion) or defers
// to still, which is ping-ponged with ready so the pass allocates nothing
// in steady state.
func (st *fluidState) activateReady() {
	if len(st.ready) == 0 {
		return
	}
	for i := 0; i < len(st.ready); i++ {
		if st.readyUnsorted {
			st.readyUnsorted = false
			slices.Sort(st.ready[i:])
		}
		id := int32(uint32(st.ready[i]))
		f := &st.flows[id]
		st.passSeq = st.fe.xf[id].seq
		f.start = st.now
		if st.tr != nil {
			t := &st.s.Transfers[id]
			st.tr.Emit(obs.Event{
				Kind: obs.EvTransferInjected, At: st.now, Transfer: id,
				Node: int32(t.Src), Flow: t.Flow, Step: t.Step,
				Bytes: int64(f.wire),
			})
		}
		if f.wire <= fluidEps {
			f.state = fsInFlight
			st.injected(id)
			continue
		}
		f.state = fsActive
		st.active = append(st.active, id)
		st.activateFlow(id)
		st.ratesDirty = true
	}
	st.passSeq = -1
	// Deferred releases arrive in gate-opening order, not readiness order.
	st.readyUnsorted = len(st.still) > 1
	st.ready, st.still = st.still, st.ready[:0]
}

// activateFlow counts flow id's path into the cnt/shared registers.
func (st *fluidState) activateFlow(id int32) {
	for _, l := range st.flows[id].path {
		st.cnt[l]++
		if st.cnt[l] == 2 {
			st.shared++
		}
	}
}

// retireFlow takes flow id's path out of the cnt/shared registers.
func (st *fluidState) retireFlow(id int32) {
	for _, l := range st.flows[id].path {
		st.cnt[l]--
		if st.cnt[l] == 1 {
			st.shared--
		}
	}
}

// injected handles a flow whose last byte left the source: schedule its
// delivery (one path latency later, plus any fault-added latency in
// effect now) and advance the sender's lockstep clock.
func (st *fluidState) injected(id int32) {
	f := &st.flows[id]
	lat := f.latency
	if st.flt != nil {
		for _, l := range f.path {
			lat += float64(st.flt.ExtraLatency(l, st.now))
		}
	}
	st.events.pushArrival(st.now+lat, lat, id)
	if st.fe.ls == nil {
		return
	}
	node := int(st.s.Transfers[id].Src)
	if at, next := st.fe.ls.injected(node, st.now); next {
		st.enterStep(node, at)
	}
}

// nextEventTime returns the earliest pending event: an active flow's
// injection completion or a timed (arrival / step-entry) event.
func (st *fluidState) nextEventTime() float64 {
	t := math.Inf(1)
	for _, id := range st.active {
		f := &st.flows[id]
		if f.rate > 0 {
			if c := st.now + f.rem/f.rate; c < t {
				t = c
			}
		}
	}
	if ev, _, ok := st.events.front(); ok && ev.at < t {
		t = ev.at
	}
	return t
}

// advanceTo drains bandwidth from active flows up to time t.
func (st *fluidState) advanceTo(t float64) {
	dt := t - st.now
	if dt > 0 {
		for _, id := range st.active {
			f := &st.flows[id]
			f.rem -= f.rate * dt
		}
	}
	st.now = t
}

// processInjections retires active flows that finished injecting.
func (st *fluidState) processInjections(res *Result) {
	out := st.active[:0]
	for _, id := range st.active {
		f := &st.flows[id]
		if f.rem <= fluidEps {
			f.rem = 0
			f.state = fsInFlight
			for _, l := range f.path {
				st.busy[l] += f.wire / st.effBW(l)
			}
			if st.tr != nil {
				// The flow's active interval on each routed link, with the
				// busy-equivalent serialization time at full link rate, so
				// a shared link's concurrent spans never sum past 100%.
				t := &st.s.Transfers[id]
				for _, l := range f.path {
					st.tr.Emit(obs.Event{
						Kind: obs.EvLinkAcquired,
						At:   f.start, Dur: st.now - f.start,
						Busy: f.wire / st.effBW(l),
						Link: int32(l), Transfer: id, Node: int32(t.Src),
						Flow: t.Flow, Step: t.Step,
						Bytes: int64(f.wire),
					})
				}
			}
			st.retireFlow(id)
			st.injected(id)
			st.ratesDirty = true
		} else {
			out = append(out, id)
		}
	}
	st.active = out
}

// processTimed fires due arrivals and node step entries.
func (st *fluidState) processTimed(res *Result) {
	for {
		ev, src, ok := st.events.front()
		if !ok || ev.at > st.now+fluidEps {
			return
		}
		st.events.pop(src)
		switch ev.kind {
		case tevArrival: // delivery at destination
			res.TransferDone[ev.id] = sim.Time(math.Ceil(st.now))
			st.fe.deliver(ev.id, st.now)
		case tevStepEntry: // deferred node step entry
			st.enterStep(int(ev.id), st.now)
		case tevFault:
			ch := st.flt.Changes()[ev.id]
			if st.tr != nil {
				scale := ch.BWScale
				if ch.Down {
					scale = 0
				}
				st.tr.Emit(obs.Event{
					Kind: obs.EvLinkFault, At: st.now, Link: int32(ch.Link),
					Busy: scale, Dur: float64(ch.AddLatency),
				})
			}
			// Effective bandwidths changed; flows on the link re-share (a
			// dead link's flows drop to rate 0 in recomputeRates).
			st.ratesDirty = true
		}
	}
}

// effBW is link l's effective bandwidth at the current time under the
// compiled fault plan. A dead link reports the base bandwidth for busy
// accounting only when a flow somehow finished on it the very instant it
// died; rate allocation uses linkCap, which reports 0.
func (st *fluidState) effBW(l topology.LinkID) float64 {
	base := st.linkBW[l]
	if st.flt == nil {
		return base
	}
	if bw := st.flt.Bandwidth(l, base, st.now); bw > 0 {
		return bw
	}
	return base
}

// linkCap is link l's capacity for rate allocation: 0 once the link died.
func (st *fluidState) linkCap(l topology.LinkID) float64 {
	base := st.linkBW[l]
	if st.flt == nil {
		return base
	}
	return st.flt.Bandwidth(l, base, st.now)
}

// inFlight reports whether flow id has injected its last byte; an issued
// flow that has not is pinned at rate 0 at a stall.
func (st *fluidState) inFlight(id int) bool { return st.flows[id].state == fsInFlight }

func (st *fluidState) describeStuck(sb *strings.Builder, id int) {
	sb.WriteString(" at rate 0")
	if l := failedLink(st.flt, st.s.Topo, st.flows[id].path, st.now+fluidEps); l != "" {
		sb.WriteString(" across failed link " + l)
	}
}

// recomputeRates assigns rates to active flows: under lockstep, with its
// step-priority arbitration (the co-designed scheduling, §IV-A/§VIII-A:
// links serve the earliest-step message first, like the FIFO/priority
// arbiters of a real router), a flow sharing any link with an
// earlier-step flow waits at rate 0; the remaining flows share max-min
// fairly via progressive filling. The filter first stamps each active
// link's minimum step into minStep, in one pass over the active paths.
//
// When no link carries two active flows — the common case, since the
// paper's Algorithm 1 gives each link to at most one tree per step — the
// answer is closed-form: no flow can be step-blocked (each link's minimum
// step is its one flow's own), and the fill ends in one round at
// 0 + bw/1 = bw for every flow, so each gets soloRate, bit for bit what
// progressive filling would assign.
func (st *fluidState) recomputeRates() {
	st.ratesDirty = false
	if len(st.active) == 0 {
		return
	}
	if st.shared == 0 && st.soloRate > 0 && !st.noIncremental {
		for _, id := range st.active {
			st.flows[id].rate = st.soloRate
		}
		st.soloFills++
		return
	}
	eligible := st.eligible[:0]
	if st.fe.ls != nil {
		st.epoch++
		ep := st.epoch
		for _, id := range st.active {
			f := &st.flows[id]
			for _, l := range f.path {
				if st.fillEpoch[l] != ep || f.step < st.minStep[l] {
					st.fillEpoch[l] = ep
					st.minStep[l] = f.step
				}
			}
		}
		for _, id := range st.active {
			f := &st.flows[id]
			blocked := false
			for _, l := range f.path {
				if st.minStep[l] < f.step {
					blocked = true
					break
				}
			}
			if blocked {
				f.rate = 0
			} else {
				eligible = append(eligible, id)
			}
		}
	} else {
		eligible = append(eligible, st.active...)
	}
	st.eligible = eligible
	st.progressiveFill(eligible)
}

// progressiveFill runs max-min progressive filling over the eligible
// flows using the dense epoch-stamped scratch arrays: fillEpoch marks
// which per-link entries belong to this fill (no clearing between
// calls), and touched lists them for the delta scans. Arithmetic is
// identical to the map-based version it replaces — delta is a min over
// the same values and remCap updates are the same per-link expressions —
// so results are bit-for-bit unchanged.
func (st *fluidState) progressiveFill(eligible []int32) {
	st.epoch++
	ep := st.epoch
	touched := st.touched[:0]
	for _, id := range eligible {
		f := &st.flows[id]
		f.rate = 0
		for _, l := range f.path {
			if st.fillEpoch[l] != ep {
				st.fillEpoch[l] = ep
				st.remCap[l] = st.linkCap(l)
				st.fillCnt[l] = 0
				touched = append(touched, int32(l))
			}
			st.fillCnt[l]++
		}
	}
	st.touched = touched
	frozen := st.frozen[:0]
	for range eligible {
		frozen = append(frozen, false)
	}
	st.frozen = frozen
	unfrozen := len(eligible)
	fill := 0.0
	for unfrozen > 0 {
		delta := math.Inf(1)
		for _, l := range touched {
			if st.fillCnt[l] > 0 {
				if d := st.remCap[l] / float64(st.fillCnt[l]); d < delta {
					delta = d
				}
			}
		}
		if math.IsInf(delta, 1) {
			break // only flows with no links remain: self-transfers, which stay at rate 0
		}
		fill += delta
		for _, l := range touched {
			st.remCap[l] -= delta * float64(st.fillCnt[l])
		}
		progress := false
		for i, id := range eligible {
			if frozen[i] {
				continue
			}
			f := &st.flows[id]
			saturated := false
			for _, l := range f.path {
				if st.remCap[l] <= fluidEps {
					saturated = true
					break
				}
			}
			if saturated {
				frozen[i] = true
				unfrozen--
				progress = true
				f.rate = fill
				for _, l := range f.path {
					st.fillCnt[l]--
				}
			}
		}
		if !progress {
			// Numerical corner: freeze everything at the current fill.
			for i, id := range eligible {
				if !frozen[i] {
					frozen[i] = true
					unfrozen--
					st.flows[id].rate = fill
				}
			}
		}
	}
}
