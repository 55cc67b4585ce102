package network

import (
	"multitree/internal/collective"
)

// The paper motivates message-based flow control not only by bandwidth but
// by energy: "the head flits of these consecutive packets contain
// redundant information, leading to unnecessary bandwidth overhead" and
// per-packet routing/arbitration "causing extra delay and energy
// consumption" (§II-C, §IV-B). This file quantifies that argument with an
// event-count energy model: every flit traversal, buffer access, packet
// routing computation and switch arbitration carries a fixed energy cost,
// and the two flow controls differ in how many of each event a gradient
// exchange generates.

// EnergyModel holds per-event energies in picojoules. Defaults follow the
// usual published NoC/off-chip ballpark (Orion-class models): link
// traversal dominated by wire energy per flit, router events a few pJ.
type EnergyModel struct {
	LinkFlitPJ    float64 // one flit crossing one link
	BufferFlitPJ  float64 // one flit written + read in an input buffer
	RoutePacketPJ float64 // one routing computation (per packet head, per hop)
	ArbPacketPJ   float64 // one switch allocation (per packet, per hop)
}

// DefaultEnergyModel returns representative per-event costs.
func DefaultEnergyModel() EnergyModel {
	return EnergyModel{
		LinkFlitPJ:    8.0,
		BufferFlitPJ:  1.5,
		RoutePacketPJ: 1.0,
		ArbPacketPJ:   1.2,
	}
}

// EnergyBreakdown reports the estimated energy of one all-reduce.
type EnergyBreakdown struct {
	Flits   int64 // flit-hops
	Packets int64 // packet-hops (routing + arbitration events)

	LinkPJ   float64
	BufferPJ float64
	RoutePJ  float64
	ArbPJ    float64
}

// TotalPJ returns the total estimated energy in picojoules.
func (e EnergyBreakdown) TotalPJ() float64 {
	return e.LinkPJ + e.BufferPJ + e.RoutePJ + e.ArbPJ
}

// TotalUJ returns the total in microjoules.
func (e EnergyBreakdown) TotalUJ() float64 { return e.TotalPJ() / 1e6 }

// EstimateEnergy computes the event counts of executing a schedule under
// the given flow control and prices them with the model. Counts are
// static (independent of contention): every transfer contributes its
// on-wire flits and its packet count once per hop of its path.
//
// Message-based flow control wins twice: fewer flits (one head flit per
// gradient message instead of per packet) and, more importantly, far
// fewer routing/arbitration events, since sub-packets of an established
// message stream through without re-arbitration (§IV-B's
// circuit-switching-without-setup behaviour).
func EstimateEnergy(s *collective.Schedule, cfg Config, m EnergyModel) (EnergyBreakdown, error) {
	if err := cfg.validate(); err != nil {
		return EnergyBreakdown{}, err
	}
	var out EnergyBreakdown
	flit := int64(cfg.FlitBytes)
	for i := range s.Transfers {
		t := &s.Transfers[i]
		payload := s.Bytes(t)
		if payload <= 0 {
			continue
		}
		hops := int64(len(s.PathOf(i)))
		wire := cfg.WireBytes(payload)
		flits := wire / flit
		var arbEvents int64
		if cfg.MessageBased {
			// One routing/arbitration event per message per hop: the head
			// sub-packet sets up the path; body sub-packets follow it.
			arbEvents = 1
		} else {
			arbEvents = (payload + int64(cfg.PayloadBytes) - 1) / int64(cfg.PayloadBytes)
		}
		out.Flits += flits * hops
		out.Packets += arbEvents * hops
	}
	out.LinkPJ = float64(out.Flits) * m.LinkFlitPJ
	out.BufferPJ = float64(out.Flits) * m.BufferFlitPJ
	out.RoutePJ = float64(out.Packets) * m.RoutePacketPJ
	out.ArbPJ = float64(out.Packets) * m.ArbPacketPJ
	return out, nil
}
