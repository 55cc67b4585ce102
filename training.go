package multitree

import (
	"multitree/internal/accel"
	"multitree/internal/experiments"
	"multitree/internal/model"
	"multitree/internal/training"
)

// Models lists the DNN workloads of the paper's evaluation.
func Models() []string {
	zoo := model.Zoo()
	names := make([]string, len(zoo))
	for i, n := range zoo {
		names[i] = n.Name
	}
	return names
}

// ModelInfo summarizes a workload.
type ModelInfo struct {
	Name          string
	Layers        int
	Params        int64
	GradientBytes int64
	MACsPerSample int64
}

// DescribeModel returns a workload's size summary.
func DescribeModel(name string) (ModelInfo, error) {
	n, err := model.ByName(name)
	if err != nil {
		return ModelInfo{}, err
	}
	return ModelInfo{
		Name:          n.Name,
		Layers:        len(n.Layers),
		Params:        n.Params(),
		GradientBytes: n.GradientBytes(),
		MACsPerSample: n.MACs(),
	}, nil
}

// TrainingOptions configures a training-iteration simulation.
type TrainingOptions struct {
	// Overlapped selects layer-wise all-reduce (Fig. 11b) instead of the
	// non-overlapped forward+backward+all-reduce sequence (Fig. 11a).
	Overlapped bool

	// Sim selects the network configuration.
	Sim SimOptions
}

// TrainingResult reports one iteration's time breakdown in cycles
// (nanoseconds at the 1 GHz clock).
type TrainingResult struct {
	Model     string
	Algorithm Algorithm

	ForwardCycles  uint64
	BackwardCycles uint64
	CommCycles     uint64 // total all-reduce busy time
	ExposedCycles  uint64 // communication not hidden under compute
	OverlapCycles  uint64 // communication hidden under compute
	TotalCycles    uint64
}

// SimulateTraining runs one data-parallel training iteration of the named
// model on the topology with the chosen all-reduce algorithm.
func SimulateTraining(t *Topology, alg Algorithm, modelName string, opt TrainingOptions) (TrainingResult, error) {
	net, err := model.ByName(modelName)
	if err != nil {
		return TrainingResult{}, err
	}
	cfg := training.Config{
		Topo:         t.t,
		Accel:        accel.Default(),
		BatchPerNode: 16, // samples per accelerator (§V-B)
		Net:          opt.Sim.internal(),
		Build:        experiments.ScheduleBuilder(string(alg)),
	}
	var (
		b    training.Breakdown
		berr error
	)
	if opt.Overlapped {
		b, berr = cfg.Overlapped(net)
	} else {
		b, berr = cfg.NonOverlapped(net)
	}
	if berr != nil {
		return TrainingResult{}, berr
	}
	return TrainingResult{
		Model:          net.Name,
		Algorithm:      alg,
		ForwardCycles:  uint64(b.Forward),
		BackwardCycles: uint64(b.Backward),
		CommCycles:     uint64(b.Comm),
		ExposedCycles:  uint64(b.Exposed),
		OverlapCycles:  uint64(b.Overlap),
		TotalCycles:    uint64(b.Total),
	}, nil
}
