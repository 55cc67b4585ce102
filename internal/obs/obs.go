// Package obs is the simulation tracing and metrics layer: a
// zero-dependency (stdlib-only) event vocabulary shared by the network
// engines, the discrete-event core and the NI state machine, plus
// collectors that turn the event stream into per-link utilization
// histograms, per-step link sets, run-total counters (NI table activity
// included) and a Chrome-trace/Perfetto export.
//
// The design center is cost when disabled: every emit site in the
// simulators is guarded by a nil check on the Tracer interface, so a run
// with no tracer attached pays one predictable branch per event and zero
// allocations (see TestNoOpEmitZeroAlloc and BenchmarkTraceOverhead).
// Events are small value structs reused at the emit sites — the engines
// build each Event on the stack and pass it by value, so neither emitting
// nor folding into Metrics boxes anything, and a Recorder whose slice has
// reached its high-water mark (Reset keeps capacity) records steadily
// with no per-event allocation either.
//
// Two simulation time domains flow through the same stream. Engine events
// carry cycle timestamps of the router clock (1 cycle = 1 ns at 1 GHz).
// NI-machine events (EvNI*) carry issue-round numbers of the behavioral
// Fig. 6 model, which has no clock; the Chrome-trace exporter keeps the
// domains on separate process tracks so they are never compared.
package obs

// Kind identifies the typed simulator events.
type Kind uint8

const (
	// EvTransferReady fires when a transfer's dependencies have cleared
	// (or immediately at seed time for dependency-free transfers), exactly
	// once per transfer, in both engines. Under lockstep the transfer may
	// still wait for its node's step gate before it injects. Node is the
	// transfer's source.
	EvTransferReady Kind = iota

	// EvTransferInjected fires when a transfer starts injecting at its
	// source NI: the fluid engine's flow activation, or the packet
	// engine's packetization and first-link enqueue. Bytes is the on-wire
	// size.
	EvTransferInjected

	// EvTransferDelivered fires when the last byte of a transfer reaches
	// its destination NI. Node is the destination.
	EvTransferDelivered

	// EvLinkAcquired is a span on a link's timeline. In the packet engine
	// it is one packet's serialization (Dur == Busy == wire/bandwidth).
	// In the fluid engine it is a flow's active interval on the link, with
	// Busy the busy-equivalent cycles at full link rate (wire/bandwidth),
	// so concurrent flows sharing a link never sum past 100%.
	EvLinkAcquired

	// EvLinkBlocked fires when a link's head packet cannot start because
	// the downstream input buffer lacks credit (packet engine only).
	EvLinkBlocked

	// EvStepEnter fires when a node's lockstep clock enters an active
	// schedule step (§IV-A injection regulation), in either engine.
	EvStepEnter

	// EvEngineQueue is a counter sample from the discrete-event core:
	// Bytes holds the pending-event count after the event at At ran.
	EvEngineQueue

	// EvNIEntryActivated fires when the Fig. 6 machine issues a
	// Reduce/Gather schedule-table entry. At is the issue round.
	EvNIEntryActivated

	// EvNIDepCleared fires when a received Reduce/Gather clears a
	// dependency in a node's table. Node is the receiver.
	EvNIDepCleared

	// EvNILockstep fires when the machine's lockstep down-counter elapses
	// a NOP entry.
	EvNILockstep

	// EvLinkFault fires when an injected fault activates on a link
	// (network.Config.Faults): Link is the affected directed link, Busy
	// the bandwidth scale now in effect (0 for a dead link), Dur the
	// added propagation latency in cycles. Appended after the NI kinds so
	// earlier trace digests keep their byte values.
	EvLinkFault
)

// String names the event kind.
func (k Kind) String() string {
	switch k {
	case EvTransferReady:
		return "transfer-ready"
	case EvTransferInjected:
		return "transfer-injected"
	case EvTransferDelivered:
		return "transfer-delivered"
	case EvLinkAcquired:
		return "link-acquired"
	case EvLinkBlocked:
		return "link-blocked"
	case EvStepEnter:
		return "step-enter"
	case EvEngineQueue:
		return "engine-queue"
	case EvNIEntryActivated:
		return "ni-entry-activated"
	case EvNIDepCleared:
		return "ni-dep-cleared"
	case EvNILockstep:
		return "ni-lockstep-nop"
	case EvLinkFault:
		return "link-fault"
	}
	return "unknown"
}

// Event is one typed simulator event. Which fields are meaningful depends
// on Kind; unused fields are zero. At and Dur are in cycles for engine
// events and in issue rounds for EvNI* events.
type Event struct {
	Kind Kind
	At   float64 // timestamp
	Dur  float64 // span length; 0 for instants
	Busy float64 // busy-equivalent cycles within the span (<= Dur)

	Transfer int32 // schedule transfer id
	Link     int32 // directed link id
	Node     int32 // node id
	Flow     int32 // tree / chunk id
	Step     int32 // algorithmic step, 1-based

	Bytes int64 // payload or wire bytes; queue depth for EvEngineQueue
}

// Tracer receives simulator events. Implementations must tolerate events
// arriving with non-monotone At: the fluid engine reports a flow's link
// span only once the flow finishes injecting, so span starts lie in the
// past.
type Tracer interface {
	Emit(Event)
}

// Emit is the nil-safe helper for call sites that do not want an explicit
// guard: a nil tracer costs one branch and zero allocations.
func Emit(t Tracer, ev Event) {
	if t != nil {
		t.Emit(ev)
	}
}

// Recorder accumulates events in memory for export or analysis.
type Recorder struct {
	Events []Event
}

// Emit appends the event.
func (r *Recorder) Emit(ev Event) { r.Events = append(r.Events, ev) }

// Reset drops recorded events but keeps the capacity.
func (r *Recorder) Reset() { r.Events = r.Events[:0] }

// multi fans events out to several tracers.
type multi []Tracer

func (m multi) Emit(ev Event) {
	for _, t := range m {
		t.Emit(ev)
	}
}

// Tee combines tracers, skipping nils. It returns nil when none remain,
// the tracer itself for one, and a fan-out for more, so the result is
// always safe to store in a Tracer field.
func Tee(ts ...Tracer) Tracer {
	var out multi
	for _, t := range ts {
		if t != nil {
			out = append(out, t)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}
