package network

import (
	"fmt"
	"math"
	"strings"

	"multitree/internal/collective"
	"multitree/internal/faults"
	"multitree/internal/obs"
	"multitree/internal/sim"
	"multitree/internal/topology"
)

// SimulatePackets executes an all-reduce schedule at packet granularity:
// transfers are packetized per the configured flow control, packets move
// hop by hop through per-link FIFO queues with serialization delay
// wire/bandwidth plus propagation delay per link, and each link's
// downstream input buffer (VCs x depth flits) exerts backpressure on the
// link. It is slower but higher-fidelity than SimulateFluid and serves as
// the reference engine in cross-validation tests and the fidelity
// ablation bench.
func SimulatePackets(s *collective.Schedule, cfg Config) (*Result, error) {
	ps, err := NewPacketSim(s, cfg)
	if err != nil {
		return nil, err
	}
	return ps.Run()
}

// Typed event kinds dispatched by the engine's fast path. The int32
// arguments carry a transfer id, packet arena index, node id or link id;
// no closures are allocated on the hot path.
const (
	evRelease   sim.Kind = iota + 1 // a: transfer id
	evSerDone                       // a: packet index, or -(transfer+1) on a last hop; b: link id
	evArrive                        // a: packet index; a hop that is not the packet's last
	evEnterStep                     // a: node id
	evDelivered                     // a: transfer id
	evLinkFault                     // a: fault-change index
)

// packet is a packet between hops: one that has started a hop that is not
// its last. Packets live in the simulation's arena and are identified by
// their index; next threads the arena's free list. A packet's route is its
// transfer's path. A packet on its first link before it starts, or on its
// last link once it starts, has no record.
type packet struct {
	transfer int32
	next     int32 // free-list link; -1 terminates
	hop      int32 // index of the link the packet is crossing or queued at, in paths[transfer]
	wire     int64 // bytes on the wire including its head-flit share
}

// stream is one issued transfer's packets. The packets not yet started on
// the first link wait there as one run entry, -(transfer+1), in the link's
// queue, and their wire sizes follow from their indices.
type stream struct {
	pkts      int64 // packets in the transfer
	unstarted int64 // packets not yet started on the first link
	left      int64 // packets not yet across the last link
	lastWire  int64 // the last packet's payload, rounded up to whole flits
}

// pktRing is a FIFO deque of link queue entries (packet arena indices and
// run entries) backed by a reusable ring buffer: popping the head advances
// an offset instead of reslicing, so the backing array is never abandoned
// and its capacity is bounded by the link's peak queue depth, not the
// total packets that ever crossed it.
type pktRing struct {
	buf  []int32
	head int
	n    int
}

func (r *pktRing) len() int     { return r.n }
func (r *pktRing) front() int32 { return r.buf[r.head] }

func (r *pktRing) push(v int32) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

func (r *pktRing) pop() int32 {
	v := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// grow doubles the power-of-two backing array, unrolling the ring.
func (r *pktRing) grow() {
	size := len(r.buf) * 2
	if size == 0 {
		size = 8
	}
	buf := make([]int32, size)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head = buf, 0
}

func (r *pktRing) reset() { r.head, r.n = 0, 0 }

// linkState is one link's mutable state.
type linkState struct {
	queue pktRing
	busy  bool
	// bufFree is the remaining input-buffer space at the link's
	// downstream router. Only this link feeds that buffer, so when space
	// frees we simply retry this link.
	bufFree int64
	// wire and ser cache the link's last serialization time: ser is
	// ceil(wire/bandwidth). Without faults the bandwidth is fixed, and
	// all packets but a transfer's first and last have the same size.
	wire int64
	ser  sim.Time
}

// PacketSim is a reusable packet-level simulator for one schedule and
// configuration. Run may be called repeatedly: every run resets the
// mutable state but keeps all backing storage (event wheel, event heap,
// packet arena, link rings), so steady-state re-simulation performs zero
// heap allocations (see TestPacketEngineSteadyStateAllocs). A packet costs
// one engine event per hop, plus one arrival event per hop but its last:
// only a transfer's final packet schedules an event for its last arrival,
// the transfer's delivery. Runs are deterministic and cycle-identical to
// each other and to SimulatePackets.
type PacketSim struct {
	ps packetSim
}

// NewPacketSim validates the configuration and builds the immutable
// schedule-derived state (dependency graph, per-transfer paths, lockstep
// step lists, byte totals).
func NewPacketSim(s *collective.Schedule, cfg Config) (*PacketSim, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	flt, err := faults.Compile(cfg.Faults, s.Topo)
	if err != nil {
		return nil, err
	}
	p := &PacketSim{}
	p.ps.init(s, cfg)
	p.ps.flt = flt
	return p, nil
}

// Run simulates the schedule and returns the result. The returned Result
// is owned by the simulator and overwritten by the next Run; callers that
// keep results across runs must copy them.
func (p *PacketSim) Run() (*Result, error) {
	ps := &p.ps
	ps.reset()
	if len(ps.s.Transfers) == 0 {
		return ps.res, nil
	}
	ps.seed()
	ps.eng.Run()
	if ps.fe.done != len(ps.s.Transfers) {
		return nil, ps.fe.stallError("packet")
	}
	ps.res.Cycles = ps.eng.Now()
	return ps.res, nil
}

// inFlight is false: a transfer issued but undelivered when the event
// queue ran dry has packets stranded.
func (ps *packetSim) inFlight(int) bool { return false }

func (ps *packetSim) describeStuck(sb *strings.Builder, id int) {
	fmt.Fprintf(sb, " has %d packet(s) stranded", ps.streams[id].left)
	if l := failedLink(ps.flt, ps.s.Topo, ps.paths[id], float64(ps.eng.Now())); l != "" {
		sb.WriteString(" at failed link " + l)
	}
}

type packetSim struct {
	s   *collective.Schedule
	cfg Config
	eng sim.Engine
	res *Result
	tr  obs.Tracer
	flt *faults.Compiled

	fe      frontEnd[sim.Time]
	paths   [][]topology.LinkID // per transfer, resolved once
	streams []stream            // per transfer

	// payloadTotal/wireTotal are computed once and restored on reset.
	payloadTotal int64
	wireTotal    int64

	// pkts is the packet arena; freeHead threads recycled slots. The arena
	// grows to the peak count of packets between hops and is then reused.
	pkts     []packet
	freeHead int32

	links  []linkState
	bufCap int64
}

// init builds the immutable schedule-derived state. Mutable state is set
// by reset before every run.
func (ps *packetSim) init(s *collective.Schedule, cfg Config) {
	n := len(s.Transfers)
	nl := len(s.Topo.Links())
	ps.s, ps.cfg, ps.tr = s, cfg, cfg.Tracer
	ps.res = &Result{
		TransferDone: make([]sim.Time, n),
		LinkBusy:     make([]sim.Time, nl),
	}
	ps.paths = make([][]topology.LinkID, n)
	ps.streams = make([]stream, n)
	ps.links = make([]linkState, nl)
	ps.eng.Trace = cfg.Tracer
	ps.eng.Dispatch = ps.dispatch
	ps.bufCap = int64(cfg.VCs) * int64(cfg.VCDepthFlits) * int64(cfg.FlitBytes)
	maxWire, minBW := int64(0), math.Inf(1)
	for _, l := range s.Topo.Links() {
		if l.Bandwidth < minBW {
			minBW = l.Bandwidth
		}
	}
	for i := range s.Transfers {
		t := &s.Transfers[i]
		ps.paths[i] = s.PathOf(i)
		w := cfg.WireBytes(s.Bytes(t))
		if w > maxWire {
			maxWire = w
		}
		ps.payloadTotal += s.Bytes(t)
		ps.wireTotal += w
	}
	var ls *lockstep[sim.Time]
	if cfg.Lockstep {
		ls = newLockstep(s, sim.Time(math.Ceil(float64(maxWire)/minBW)))
	}
	ps.fe.init(s, cfg.Tracer, ps, ls)
}

// reset restores the mutable state for a fresh deterministic run while
// keeping every backing array.
func (ps *packetSim) reset() {
	s := ps.s
	ps.eng.Reset()
	ps.res.Cycles = 0
	ps.res.PayloadBytes = ps.payloadTotal
	ps.res.WireBytes = ps.wireTotal
	for i := range s.Transfers {
		ps.streams[i] = stream{}
		ps.res.TransferDone[i] = 0
	}
	for l := range ps.links {
		ln := &ps.links[l]
		ln.queue.reset()
		ln.busy = false
		ln.bufFree = ps.bufCap
		ps.res.LinkBusy[l] = 0
	}
	ps.pkts = ps.pkts[:0]
	ps.freeHead = -1
	ps.fe.reset()
}

// dispatch is the engine's typed fast path: one switch instead of one
// heap-allocated closure per event.
func (ps *packetSim) dispatch(kind sim.Kind, a, b int32) {
	switch kind {
	case evRelease:
		ps.fe.ready(a, ps.eng.Now())
	case evSerDone:
		ps.serDone(a, topology.LinkID(b))
	case evArrive:
		ps.arrive(a)
	case evEnterStep:
		ps.fe.enterStep(int(a), ps.eng.Now())
	case evDelivered:
		ps.delivered(a)
	case evLinkFault:
		ch := ps.flt.Changes()[a]
		if ps.tr != nil {
			scale := ch.BWScale
			if ch.Down {
				scale = 0
			}
			ps.tr.Emit(obs.Event{
				Kind: obs.EvLinkFault, At: float64(ps.eng.Now()),
				Link: int32(ch.Link), Busy: scale, Dur: float64(ch.AddLatency),
			})
		}
		// Nothing to re-arm: serialization rates are sampled when a packet
		// starts crossing, and a link that just died strands its queue
		// (tryTransmit refuses), which the post-run stall check reports.
	}
}

// allocPacket takes a slot from the free list or grows the arena for a
// packet starting its first hop.
func (ps *packetSim) allocPacket(transfer int32, wire int64) int32 {
	if i := ps.freeHead; i >= 0 {
		p := &ps.pkts[i]
		ps.freeHead = p.next
		p.transfer, p.next, p.hop, p.wire = transfer, -1, 0, wire
		return i
	}
	ps.pkts = append(ps.pkts, packet{transfer: transfer, next: -1, wire: wire})
	return int32(len(ps.pkts) - 1)
}

// freePacket returns the slot of a packet starting its last hop to the
// free list.
func (ps *packetSim) freePacket(i int32) {
	ps.pkts[i].next = ps.freeHead
	ps.freeHead = i
}

// seed enters every sending node's first step, schedules fault
// activations, and releases dependency-free transfers at cycle 0.
func (ps *packetSim) seed() {
	if ps.flt != nil {
		// Scheduled here rather than in init so a reused PacketSim re-arms
		// the fault timeline on every Run.
		for i, ch := range ps.flt.Changes() {
			ps.eng.ScheduleKind(ch.At, evLinkFault, int32(i), 0)
		}
	}
	if ls := ps.fe.ls; ls != nil {
		for node := range ls.clocks {
			at, ok := ls.firstEntry(node)
			switch {
			case !ok:
			case at > 0:
				ps.eng.ScheduleKind(at, evEnterStep, int32(node), 0)
			default:
				ps.fe.enterStep(node, 0)
			}
		}
	}
	for i, x := range ps.fe.xf {
		if x.deps == 0 {
			ps.eng.ScheduleKind(0, evRelease, int32(i), 0)
		}
	}
}

// issue packetizes a transfer: its packets enter the first link of its
// path as one run entry. A zero-byte transfer is delivered one path
// latency later, plus any fault-added latency in effect now, as the fluid
// engine delivers it.
func (ps *packetSim) issue(id int32) {
	t := &ps.s.Transfers[id]
	path := ps.paths[id]
	payload := ps.s.Bytes(t)
	if ps.tr != nil {
		ps.tr.Emit(obs.Event{
			Kind: obs.EvTransferInjected, At: float64(ps.eng.Now()), Transfer: id,
			Node: int32(t.Src), Flow: t.Flow, Step: t.Step,
			Bytes: ps.cfg.WireBytes(payload),
		})
	}
	if payload == 0 {
		lat := ps.s.Topo.PathLatency(path)
		if ps.flt != nil {
			for _, l := range path {
				lat += ps.flt.ExtraLatency(l, float64(ps.eng.Now()))
			}
		}
		ps.eng.AfterKind(lat, evDelivered, id, 0)
		ps.injectionDone(int(t.Src))
		return
	}
	// All packets but the last carry a full payload; PayloadBytes is a
	// whole number of flits (validated), so only the remainder rounds up.
	full, flit := int64(ps.cfg.PayloadBytes), int64(ps.cfg.FlitBytes)
	n := (payload + full - 1) / full
	last := payload - (n-1)*full
	ps.streams[id] = stream{pkts: n, unstarted: n, left: n, lastWire: (last + flit - 1) / flit * flit}
	ps.links[path[0]].queue.push(-id - 1)
	ps.tryTransmit(path[0])
}

// wire returns the wire size of packet k of a stream: a full payload, or
// the rounded remainder for the last packet, plus the head flit on every
// packet (packet-based) or only the first (message-based).
func (ps *packetSim) wire(st *stream, k int64) int64 {
	w := int64(ps.cfg.PayloadBytes)
	if k == st.pkts-1 {
		w = st.lastWire
	}
	if !ps.cfg.MessageBased || k == 0 {
		w += int64(ps.cfg.FlitBytes)
	}
	return w
}

// tryTransmit starts serving the head packet of a link's queue if the link
// is idle and the downstream buffer has room. It re-arms itself after each
// serialization completes, so a blocked link retries whenever its buffer
// frees or a new packet arrives.
func (ps *packetSim) tryTransmit(l topology.LinkID) {
	ln := &ps.links[l]
	if ln.busy || ln.queue.len() == 0 {
		return
	}
	if ps.flt != nil {
		if at, down := ps.flt.DownAt(l); down && at <= ps.eng.Now() {
			return // link died; its queue is stranded and the run will stall
		}
	}
	// The head is a packet record, or a run entry whose next packet starts
	// its first hop.
	head := ln.queue.front()
	var tr, hop int32
	var wire int64
	var st *stream
	if head < 0 {
		tr = -head - 1
		st = &ps.streams[tr]
		wire = ps.wire(st, st.pkts-st.unstarted)
	} else {
		p := &ps.pkts[head]
		tr, hop, wire = p.transfer, p.hop, p.wire
	}
	path := ps.paths[tr]
	lastHop := int(hop) == len(path)-1
	if !lastHop && ln.bufFree < wire {
		if ps.tr != nil {
			ps.tr.Emit(obs.Event{
				Kind: obs.EvLinkBlocked, At: float64(ps.eng.Now()),
				Link: int32(l), Transfer: tr, Bytes: wire,
			})
		}
		return // backpressured; retried when the buffer frees
	}
	// pi names the packet to serDone: its record, which it keeps only
	// between hops, or its transfer on a last hop.
	pi := -tr - 1
	if head < 0 {
		if st.unstarted--; st.unstarted == 0 {
			ln.queue.pop()
		}
		if !lastHop {
			pi = ps.allocPacket(tr, wire)
		}
	} else {
		ln.queue.pop()
		if lastHop {
			ps.freePacket(head)
		} else {
			pi = head
		}
	}
	if !lastHop {
		ln.bufFree -= wire
	}
	if hop > 0 {
		// Departing frees the input buffer of the previous link and may
		// unblock it.
		prev := path[hop-1]
		ps.links[prev].bufFree += wire
		ps.tryTransmit(prev)
	}
	ln.busy = true
	ser := ps.serialization(l, wire)
	ps.res.LinkBusy[l] += ser
	if ps.tr != nil {
		t := &ps.s.Transfers[tr]
		ps.tr.Emit(obs.Event{
			Kind: obs.EvLinkAcquired, At: float64(ps.eng.Now()),
			Dur: float64(ser), Busy: float64(ser),
			Link: int32(l), Transfer: tr, Node: int32(t.Src),
			Flow: t.Flow, Step: t.Step, Bytes: wire,
		})
	}
	ps.eng.AfterKind(ser, evSerDone, pi, int32(l))
}

// serialization returns the cycles link l takes to put wire bytes on the
// wire now. Without faults it reuses the link's last answer when the size
// repeats.
func (ps *packetSim) serialization(l topology.LinkID, wire int64) sim.Time {
	if ps.flt != nil {
		bw := ps.flt.Bandwidth(l, ps.s.Topo.Link(l).Bandwidth, float64(ps.eng.Now()))
		return sim.Time(math.Ceil(float64(wire) / bw))
	}
	ln := &ps.links[l]
	if ln.wire != wire {
		ln.wire, ln.ser = wire, sim.Time(math.Ceil(float64(wire)/ps.s.Topo.Link(l).Bandwidth))
	}
	return ln.ser
}

// serDone handles a packet's last byte leaving link l: the link frees and
// first-hop departures advance the sender's lockstep clock. A packet
// between hops arrives downstream one propagation delay (plus any
// fault-added latency) later. A packet on its last hop is counted across
// now: a transfer's packets share one FIFO path and fault latency only
// ever grows, so its final packet arrives last, and only that arrival, the
// transfer's delivery, is an event.
func (ps *packetSim) serDone(pi int32, l topology.LinkID) {
	ps.links[l].busy = false
	var tr int32
	var firstHop bool
	if pi >= 0 {
		p := &ps.pkts[pi]
		tr, firstHop = p.transfer, p.hop == 0
	} else {
		tr = -pi - 1
		firstHop = len(ps.paths[tr]) == 1
	}
	st := &ps.streams[tr]
	if firstHop && st.unstarted == 0 {
		// The first link serves a run's packets back to back, so none has
		// started behind this one: it was the transfer's last to leave.
		ps.injectionDone(int(ps.s.Transfers[tr].Src))
	}
	ps.tryTransmit(l)
	kind, a := evArrive, pi
	if pi < 0 {
		if st.left--; st.left > 0 {
			return
		}
		kind, a = evDelivered, tr
	}
	lat := ps.s.Topo.Link(l).Latency
	if ps.flt != nil {
		lat += ps.flt.ExtraLatency(l, float64(ps.eng.Now()))
	}
	ps.eng.AfterKind(lat, kind, a, 0)
}

// arrive handles a packet reaching the downstream end of a link that is
// not its last: it joins the next link's queue.
func (ps *packetSim) arrive(pi int32) {
	p := &ps.pkts[pi]
	p.hop++
	next := ps.paths[p.transfer][p.hop]
	ps.links[next].queue.push(pi)
	ps.tryTransmit(next)
}

// delivered marks a transfer complete and readies its dependents.
func (ps *packetSim) delivered(id int32) {
	ps.res.TransferDone[id] = ps.eng.Now()
	ps.fe.deliver(id, ps.eng.Now())
}

// injectionDone advances the node's lockstep clock once all sends of its
// current step have left the NI. The next step's entry is an event even
// when no NOP gap delays it.
func (ps *packetSim) injectionDone(node int) {
	if ps.fe.ls == nil {
		return
	}
	if at, next := ps.fe.ls.injected(node, ps.eng.Now()); next {
		ps.eng.ScheduleKind(at, evEnterStep, int32(node), 0)
	}
}
