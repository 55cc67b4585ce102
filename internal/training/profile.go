package training

import (
	"multitree/internal/collective"
	"multitree/internal/model"
	"multitree/internal/sim"
)

// LayerProfile is one layer's contribution to an iteration: compute
// cycles, gradient volume, and the layer's standalone all-reduce time
// under the configured algorithm — the inputs to the Fig. 11b overlap
// analysis, exposed for inspection.
type LayerProfile struct {
	Name          string
	Kind          string
	Params        int64
	GradientBytes int64

	ForwardCycles   sim.Time
	BackwardCycles  sim.Time
	AllReduceCycles sim.Time
}

// Profile computes the per-layer breakdown of one iteration.
func (c Config) Profile(net model.Network) ([]LayerProfile, error) {
	out := make([]LayerProfile, len(net.Layers))
	memo := map[int]sim.Time{}
	for i, l := range net.Layers {
		comm, err := c.allReduceCycles(int(l.Params()), memo)
		if err != nil {
			return nil, err
		}
		out[i] = LayerProfile{
			Name:            l.Name,
			Kind:            l.Kind.String(),
			Params:          l.Params(),
			GradientBytes:   l.Params() * collective.WordSize,
			ForwardCycles:   sim.Time(c.Accel.ForwardCycles(l, c.BatchPerNode)),
			BackwardCycles:  sim.Time(c.Accel.BackwardCycles(l, c.BatchPerNode, i == 0)),
			AllReduceCycles: comm,
		}
	}
	return out, nil
}
