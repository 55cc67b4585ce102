// Package network simulates the interconnection fabric of the paper's
// evaluation (Table III): virtual cut-through flow control, 16 GB/s 150 ns
// links at a 1 GHz router clock, 4 virtual channels of 318 flits, and
// 256-byte data packet payloads for the baselines. It provides two
// engines over the same collective.Schedule input:
//
//   - a fluid, flow-level engine (SimulateFluid) that allocates max-min
//     fair rates over each transfer's routed links — fast enough for the
//     64 MiB sweeps of Fig. 9 and the 256-node scaling of Fig. 10; and
//   - a packet-level engine (SimulatePackets) that moves individual
//     packets hop by hop through per-link FIFOs with buffer backpressure —
//     the higher-fidelity reference the fluid engine is cross-validated
//     against in tests.
//
// Both engines model the paper's two flow-control schemes: conventional
// packet-based switching (one head flit per payload packet, Fig. 7a) and
// the co-designed message-based switching for big gradients (one head flit
// per gradient message, Fig. 7b).
package network

import (
	"fmt"

	"multitree/internal/faults"
	"multitree/internal/obs"
	"multitree/internal/sim"
)

// Config carries the network parameters of Table III plus the flow-control
// and scheduling options of the co-design.
type Config struct {
	// FlitBytes is the flit width (16 bytes in the paper).
	FlitBytes int

	// PayloadBytes is the data-packet payload used by packet-based flow
	// control (256 bytes for the baselines).
	PayloadBytes int

	// MessageBased enables the big-gradient message-based flow control of
	// §IV-B: the whole per-transfer gradient chunk travels as one message
	// with a single head flit, instead of one head flit per packet.
	MessageBased bool

	// Lockstep enables the NI lockstep injection regulation of §IV-A: each
	// node issues its schedule-table entries in time-step order, stalling
	// NOP gaps for the estimated step time. In the fluid engine it also
	// makes links serve the earliest-step flow first, modeling the router
	// arbitration the co-design relies on to keep the lockstep schedule
	// intact ("fine-grained control to schedule link communication earlier
	// for the critical tree", §VIII-A): without it, flows of adjacent time
	// steps that briefly overlap on a link would share max-min fairly,
	// which real FIFO arbiters do not do. The paper applies this
	// scheduling to all baselines for fair comparison, so it defaults on.
	Lockstep bool

	// VCs and VCDepthFlits size the per-link input buffering used by the
	// packet engine for backpressure (4 VCs x 318 flits in Table III).
	VCs          int
	VCDepthFlits int

	// Faults, when non-nil, injects mid-flight fabric degradation into
	// either engine: links fail, lose bandwidth or gain latency at their
	// configured activation times. A transfer that must cross a link at
	// or after the link died can never finish, so the run errors with a
	// descriptive stall report naming the blocked transfers. The nil
	// default keeps the no-fault fast paths untouched. To instead
	// re-plan the collective around known faults, degrade the topology
	// with faults.Apply before building the schedule.
	Faults *faults.Plan

	// Tracer, when non-nil, receives typed simulation events from either
	// engine (transfer ready/injected/delivered, link-acquired spans,
	// credit blocks, lockstep step entries, event-queue samples). The nil
	// default keeps the hot paths branch-only with zero allocations per
	// event.
	Tracer obs.Tracer
}

// DefaultConfig returns the Table III configuration with packet-based
// (baseline) flow control and lockstep scheduling enabled.
func DefaultConfig() Config {
	return Config{
		FlitBytes:    16,
		PayloadBytes: 256,
		MessageBased: false,
		Lockstep:     true,
		VCs:          4,
		VCDepthFlits: 318,
	}
}

// MessageConfig returns the co-designed configuration (message-based flow
// control), i.e. the MULTITREE-MSG operating point.
func MessageConfig() Config {
	c := DefaultConfig()
	c.MessageBased = true
	return c
}

func (c Config) validate() error {
	if c.FlitBytes <= 0 || c.PayloadBytes <= 0 {
		return fmt.Errorf("network: non-positive flit (%d) or payload (%d) size",
			c.FlitBytes, c.PayloadBytes)
	}
	if c.PayloadBytes%c.FlitBytes != 0 {
		return fmt.Errorf("network: payload %dB is not a whole number of %dB flits",
			c.PayloadBytes, c.FlitBytes)
	}
	return nil
}

// WireBytes returns the on-wire size of a transfer carrying payload bytes
// under the configured flow control, counting head-flit overhead.
//
// Packet-based: every PayloadBytes-sized packet carries one extra head
// flit (Fig. 7a), so a 256 B payload costs 272 B on the wire (6.25%
// overhead; Fig. 2's 64 B payload costs 25%).
//
// Message-based: the whole chunk is one message with a single head flit;
// sub-packet boundaries reuse body-flit slots (sub-tail flits replace the
// final body flit of a sub-packet rather than adding one), so overhead is
// one flit per transfer (Fig. 7b).
func (c Config) WireBytes(payload int64) int64 {
	if payload <= 0 {
		return 0
	}
	flit := int64(c.FlitBytes)
	bodyBytes := (payload + flit - 1) / flit * flit // payload rounded to flits
	if c.MessageBased {
		return bodyBytes + flit
	}
	packets := (payload + int64(c.PayloadBytes) - 1) / int64(c.PayloadBytes)
	return bodyBytes + packets*flit
}

// HeadFlitOverhead returns the fractional bandwidth overhead of
// packet-based flow control for a given payload size — the quantity Fig. 2
// plots (6%-25% for 256 B down to 64 B payloads with 16 B flits).
func HeadFlitOverhead(payloadBytes, flitBytes int) float64 {
	if payloadBytes <= 0 {
		return 0
	}
	return float64(flitBytes) / float64(payloadBytes)
}

// Result reports a simulated all-reduce execution.
type Result struct {
	// Cycles is the simulated completion time (all transfers delivered).
	Cycles sim.Time

	// PayloadBytes and WireBytes total the gradient bytes and on-wire
	// bytes (with head-flit overhead) moved across all transfers.
	PayloadBytes int64
	WireBytes    int64

	// TransferDone holds each transfer's delivery time, for per-layer
	// overlap accounting in the training simulator.
	TransferDone []sim.Time

	// LinkBusy[l] is the total busy time of directed link l, for
	// utilization reports.
	LinkBusy []sim.Time
}

// BandwidthBytesPerCycle returns the achieved all-reduce bandwidth: data
// size divided by simulation time (§VI-A's metric).
func (r *Result) BandwidthBytesPerCycle(dataBytes int64) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(dataBytes) / float64(r.Cycles)
}

// GBps converts a bytes-per-cycle bandwidth to GB/s at the 1 GHz clock.
func GBps(bytesPerCycle float64) float64 { return bytesPerCycle } // 1 B/cycle = 1 GB/s at 1 GHz
