package experiments

import (
	"multitree/internal/algorithms"
	"multitree/internal/collective"
	"multitree/internal/faults"
	"multitree/internal/network"
	"multitree/internal/obs"
	"multitree/internal/topology"
)

// TracedResult is one traced all-reduce run: the measurement plus the
// streaming metrics every CSV export and event count reads, and the
// track metadata a Chrome-trace export needs.
type TracedResult struct {
	Point   AllReducePoint
	Sched   *collective.Schedule
	Meta    obs.TraceMeta
	Metrics *obs.Metrics
}

// TraceAllReduce measures one (topology, algorithm, size) point like
// MeasureAllReduce while streaming every simulation event into a metrics
// collector with binCycles-wide utilization bins, and into extra when it
// is non-nil (a Recorder for a Chrome trace). A non-nil plan injects
// engine-layer faults: they activate mid-flight during the traced run
// (EvLinkFault events reach the tracers), without re-planning the
// schedule around them.
func TraceAllReduce(topo *topology.Topology, alg AlgSpec, dataBytes int64, engine Engine, binCycles float64, plan *faults.Plan, extra obs.Tracer, opts algorithms.Options) (*TracedResult, error) {
	met := obs.NewMetrics(binCycles)
	cfg := network.DefaultConfig()
	cfg.Faults = plan
	cfg.Tracer = obs.Tee(extra, met)
	p, s, err := measure(topo, alg, dataBytes, engine, cfg, opts)
	if err != nil {
		return nil, err
	}
	return &TracedResult{
		Point:   p,
		Sched:   s,
		Meta:    network.TraceMetaFor(s, ""),
		Metrics: met,
	}, nil
}
