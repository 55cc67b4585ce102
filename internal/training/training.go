// Package training simulates one data-parallel training iteration (§V-B,
// Fig. 11): forward and back-propagation compute on every node's
// accelerator, plus the gradient all-reduce, in two modes:
//
//   - NonOverlapped: forward + backward + one all-reduce of the full
//     gradient (Fig. 11a);
//   - Overlapped: layer-wise all-reduce — each layer's gradient is queued
//     for all-reduce as soon as its backward pass finishes, so
//     communication overlaps the remaining back-propagation (Fig. 11b).
package training

import (
	"fmt"

	"multitree/internal/accel"
	"multitree/internal/collective"
	"multitree/internal/model"
	"multitree/internal/network"
	"multitree/internal/sim"
	"multitree/internal/topology"
)

// ScheduleBuilder constructs an all-reduce schedule for elems gradient
// elements on a topology; each algorithm package provides one. Within one
// NonOverlapped, Overlapped or Profile call it is called once per distinct
// gradient size, so it must be deterministic in elems.
type ScheduleBuilder func(topo *topology.Topology, elems int) (*collective.Schedule, error)

// Engine executes a schedule; network.SimulateFluid or
// network.SimulatePackets. Like ScheduleBuilder it runs once per distinct
// gradient size per call and must be deterministic, so a tracing engine
// sees each size once, however many layers share it.
type Engine func(*collective.Schedule, network.Config) (*network.Result, error)

// Config assembles a training system.
type Config struct {
	Topo         *topology.Topology
	Accel        accel.Accelerator
	BatchPerNode int // 16 in the paper
	Net          network.Config

	// Build and Engine run once per distinct gradient size in each
	// NonOverlapped, Overlapped or Profile call, so both must be
	// deterministic in elems; a tracing engine sees each size once.
	Build  ScheduleBuilder
	Engine Engine // nil selects the fluid engine
}

// Breakdown reports one iteration's time composition in cycles.
type Breakdown struct {
	Forward  sim.Time
	Backward sim.Time

	// Comm is the total all-reduce busy time; Exposed is the part not
	// hidden under compute (equal to Comm in non-overlapped mode);
	// Overlap is Comm - Exposed.
	Comm    sim.Time
	Exposed sim.Time
	Overlap sim.Time

	Total sim.Time
}

// Compute returns forward + backward time.
func (b Breakdown) Compute() sim.Time { return b.Forward + b.Backward }

func (b Breakdown) String() string {
	return fmt.Sprintf("fwd=%d bwd=%d comm=%d (exposed %d, overlapped %d) total=%d",
		b.Forward, b.Backward, b.Comm, b.Exposed, b.Overlap, b.Total)
}

func (c Config) engine() Engine {
	if c.Engine != nil {
		return c.Engine
	}
	return network.SimulateFluid
}

// allReduceCycles simulates an all-reduce of elems gradient elements,
// once per size: memo holds the cycles of every size already simulated in
// the current call. Builders and engines are deterministic, so a repeat
// would return the same cycles.
func (c Config) allReduceCycles(elems int, memo map[int]sim.Time) (sim.Time, error) {
	if elems <= 0 {
		return 0, nil
	}
	if t, ok := memo[elems]; ok {
		return t, nil
	}
	s, err := c.Build(c.Topo, elems)
	if err != nil {
		return 0, err
	}
	res, err := c.engine()(s, c.Net)
	if err != nil {
		return 0, err
	}
	memo[elems] = res.Cycles
	return res.Cycles, nil
}

// NonOverlapped simulates forward + back-propagation + one full-gradient
// all-reduce (Fig. 11a's training approach).
func (c Config) NonOverlapped(net model.Network) (Breakdown, error) {
	var b Breakdown
	b.Forward = sim.Time(c.Accel.NetworkForwardCycles(net, c.BatchPerNode))
	b.Backward = sim.Time(c.Accel.NetworkBackwardCycles(net, c.BatchPerNode))
	comm, err := c.allReduceCycles(int(net.Params()), map[int]sim.Time{})
	if err != nil {
		return b, err
	}
	b.Comm = comm
	b.Exposed = comm
	b.Total = b.Forward + b.Backward + b.Comm
	return b, nil
}

// Overlapped simulates layer-wise all-reduce (Fig. 11b): back-propagation
// walks the layers in reverse; each finished layer enqueues its gradient
// all-reduce on the network, which serves the queue in FIFO order
// concurrently with the remaining compute.
func (c Config) Overlapped(net model.Network) (Breakdown, error) {
	var b Breakdown
	b.Forward = sim.Time(c.Accel.NetworkForwardCycles(net, c.BatchPerNode))

	// Back-propagation completion time per layer, last layer first.
	now := b.Forward
	commFree := b.Forward // network idle until gradients exist
	var commBusy sim.Time
	memo := map[int]sim.Time{}
	for i := len(net.Layers) - 1; i >= 0; i-- {
		l := net.Layers[i]
		now += sim.Time(c.Accel.BackwardCycles(l, c.BatchPerNode, i == 0))
		p := l.Params()
		if p == 0 {
			continue
		}
		dur, err := c.allReduceCycles(int(p), memo)
		if err != nil {
			return b, err
		}
		commFree = max(commFree, now) + dur
		commBusy += dur
	}
	b.Backward = now - b.Forward
	b.Comm = commBusy
	computeEnd := now
	b.Total = max(computeEnd, commFree)
	b.Exposed = b.Total - computeEnd
	b.Overlap = b.Comm - b.Exposed
	return b, nil
}
