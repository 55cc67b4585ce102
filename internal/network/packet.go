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
	evSerDone                       // a: packet index, b: link id
	evArrive                        // a: packet index
	evEnterStep                     // a: node id
	evDelivered                     // a: transfer id
	evLinkFault                     // a: fault-change index
)

// packet is one on-wire unit of a transfer. Packets live in the
// simulation's arena and are identified by their index; next threads the
// arena's free list. A packet's route is its transfer's path.
type packet struct {
	transfer int32
	next     int32 // free-list link; -1 terminates
	hop      int32 // index of the link the packet crosses next, in paths[transfer]
	wire     int64 // bytes on the wire including its head-flit share
}

// pktRing is a FIFO deque of packet arena indices backed by a reusable
// ring buffer: popping the head advances an offset instead of reslicing,
// so the backing array is never abandoned and its capacity is bounded by
// the link's peak queue depth, not the total packets that ever crossed it.
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

// PacketSim is a reusable packet-level simulator for one schedule and
// configuration. Run may be called repeatedly: every run resets the
// mutable state but keeps all backing storage (event wheel, event heap,
// packet arena, link rings), so steady-state re-simulation performs zero
// heap allocations (see TestPacketEngineSteadyStateAllocs). Runs are
// deterministic and cycle-identical to each other and to SimulatePackets.
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
	fmt.Fprintf(sb, " has %d packet(s) stranded", ps.pktsLeft[id])
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

	fe       frontEnd[sim.Time]
	paths    [][]topology.LinkID // per transfer, resolved once
	pktsLeft []int               // packets not yet delivered, per transfer
	toInject []int               // packets not yet across the first link, per transfer

	// payloadTotal/wireTotal are computed once and restored on reset.
	payloadTotal int64
	wireTotal    int64

	// pkts is the packet arena; freeHead threads recycled slots. The arena
	// grows to the peak in-flight packet count and is then reused.
	pkts     []packet
	freeHead int32

	linkBusy  []bool
	linkQueue []pktRing
	// bufFree[l] is the remaining input-buffer space at link l's
	// downstream router. Only link l feeds that buffer, so when space
	// frees we simply retry link l.
	bufFree []int64
	bufCap  int64
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
	ps.pktsLeft = make([]int, n)
	ps.toInject = make([]int, n)
	ps.linkBusy = make([]bool, nl)
	ps.linkQueue = make([]pktRing, nl)
	ps.bufFree = make([]int64, nl)
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
		ps.pktsLeft[i] = 0
		ps.toInject[i] = 0
		ps.res.TransferDone[i] = 0
	}
	for l := range ps.bufFree {
		ps.bufFree[l] = ps.bufCap
		ps.linkBusy[l] = false
		ps.linkQueue[l].reset()
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

// allocPacket takes a slot from the free list or grows the arena.
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

// freePacket returns a delivered packet's slot to the free list.
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

// issue packetizes a transfer and enqueues its packets on the first link
// of its path. Per-packet wire sizes are computed arithmetically — all
// packets carry a full payload except the last, and head-flit overhead
// falls on every packet (packet-based) or only the first (message-based)
// — so no per-transfer size slice is built.
func (ps *packetSim) issue(id int32) {
	t := &ps.s.Transfers[id]
	path := ps.paths[id]
	payload := ps.s.Bytes(t)
	flit := int64(ps.cfg.FlitBytes)
	var nPkts int64
	if payload > 0 {
		nPkts = (payload + int64(ps.cfg.PayloadBytes) - 1) / int64(ps.cfg.PayloadBytes)
	}
	if ps.tr != nil {
		ps.tr.Emit(obs.Event{
			Kind: obs.EvTransferInjected, At: float64(ps.eng.Now()), Transfer: id,
			Node: int32(t.Src), Flow: t.Flow, Step: t.Step,
			Bytes: ps.cfg.WireBytes(payload),
		})
	}
	ps.pktsLeft[id] = int(nPkts)
	ps.toInject[id] = int(nPkts)
	if nPkts == 0 {
		ps.eng.AfterKind(ps.s.Topo.PathLatency(path), evDelivered, id, 0)
		ps.injectionDone(int(t.Src))
		return
	}
	// All packets but the last carry a full payload; PayloadBytes is a
	// whole number of flits (validated), so only the remainder rounds up.
	fullWire := int64(ps.cfg.PayloadBytes)
	lastChunk := payload - (nPkts-1)*int64(ps.cfg.PayloadBytes)
	lastWire := (lastChunk + flit - 1) / flit * flit
	first := path[0]
	for i := int64(0); i < nPkts; i++ {
		wire := fullWire
		if i == nPkts-1 {
			wire = lastWire
		}
		if !ps.cfg.MessageBased || i == 0 {
			wire += flit
		}
		ps.linkQueue[first].push(ps.allocPacket(id, wire))
	}
	ps.tryTransmit(first)
}

// tryTransmit starts serving the head packet of a link's queue if the link
// is idle and the downstream buffer has room. It re-arms itself after each
// serialization completes, so a blocked link retries whenever its buffer
// frees or a new packet arrives.
func (ps *packetSim) tryTransmit(l topology.LinkID) {
	if ps.linkBusy[l] || ps.linkQueue[l].len() == 0 {
		return
	}
	if ps.flt != nil {
		if at, down := ps.flt.DownAt(l); down && at <= ps.eng.Now() {
			return // link died; its queue is stranded and the run will stall
		}
	}
	pi := ps.linkQueue[l].front()
	p := &ps.pkts[pi]
	path := ps.paths[p.transfer]
	lastHop := int(p.hop) == len(path)-1
	if !lastHop && ps.bufFree[l] < p.wire {
		if ps.tr != nil {
			ps.tr.Emit(obs.Event{
				Kind: obs.EvLinkBlocked, At: float64(ps.eng.Now()),
				Link: int32(l), Transfer: p.transfer, Bytes: p.wire,
			})
		}
		return // backpressured; retried when the buffer frees
	}
	ps.linkQueue[l].pop()
	if !lastHop {
		ps.bufFree[l] -= p.wire
	}
	if p.hop > 0 {
		// Departing frees the input buffer of the previous link and may
		// unblock it.
		prev := path[p.hop-1]
		ps.bufFree[prev] += p.wire
		ps.tryTransmit(prev)
	}
	ps.linkBusy[l] = true
	link := ps.s.Topo.Link(l)
	bw := link.Bandwidth
	if ps.flt != nil {
		bw = ps.flt.Bandwidth(l, bw, float64(ps.eng.Now()))
	}
	ser := sim.Time(math.Ceil(float64(p.wire) / bw))
	ps.res.LinkBusy[l] += ser
	if ps.tr != nil {
		t := &ps.s.Transfers[p.transfer]
		ps.tr.Emit(obs.Event{
			Kind: obs.EvLinkAcquired, At: float64(ps.eng.Now()),
			Dur: float64(ser), Busy: float64(ser),
			Link: int32(l), Transfer: p.transfer, Node: int32(t.Src),
			Flow: t.Flow, Step: t.Step, Bytes: p.wire,
		})
	}
	ps.eng.AfterKind(ser, evSerDone, pi, int32(l))
}

// serDone handles a packet's last byte leaving link l: the link frees,
// first-hop departures advance the sender's lockstep clock, and the
// packet arrives downstream one propagation delay later. The packet's hop
// index is unchanged until arrive, so first/last-hop are derived here
// exactly as the serialization closure captured them before the rewrite.
func (ps *packetSim) serDone(pi int32, l topology.LinkID) {
	p := &ps.pkts[pi]
	ps.linkBusy[l] = false
	if p.hop == 0 {
		ps.toInject[p.transfer]--
		if ps.toInject[p.transfer] == 0 {
			ps.injectionDone(int(ps.s.Transfers[p.transfer].Src))
		}
	}
	ps.tryTransmit(l)
	lat := ps.s.Topo.Link(l).Latency
	if ps.flt != nil {
		lat += ps.flt.ExtraLatency(l, float64(ps.eng.Now()))
	}
	ps.eng.AfterKind(lat, evArrive, pi, 0)
}

// arrive handles a packet reaching the downstream end of its current link.
func (ps *packetSim) arrive(pi int32) {
	p := &ps.pkts[pi]
	path := ps.paths[p.transfer]
	if int(p.hop) == len(path)-1 {
		// Eject into the destination NI; router buffer space was never
		// charged for the final hop.
		tr := p.transfer
		ps.freePacket(pi)
		ps.pktsLeft[tr]--
		if ps.pktsLeft[tr] == 0 {
			ps.delivered(tr)
		}
		return
	}
	p.hop++
	next := path[p.hop]
	ps.linkQueue[next].push(pi)
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
