package experiments

import (
	"io"

	"multitree/internal/algorithms"
	"multitree/internal/collective"
	"multitree/internal/faults"
	"multitree/internal/network"
	"multitree/internal/obs"
	"multitree/internal/topology"
)

// TracedResult is one traced all-reduce run: the measurement plus the
// full event recording and streaming metrics, ready for Chrome-trace or
// CSV export.
type TracedResult struct {
	Point   AllReducePoint
	Sched   *collective.Schedule
	Meta    obs.TraceMeta
	Events  *obs.Recorder
	Metrics *obs.Metrics
}

// WriteChromeTrace exports the recording as Chrome-trace JSON for
// ui.perfetto.dev.
func (tr *TracedResult) WriteChromeTrace(w io.Writer) error {
	return obs.WriteChromeTrace(w, tr.Meta, tr.Events.Events)
}

// TraceAllReduce measures one (topology, algorithm, size) point like
// MeasureAllReduce while recording every simulation event and streaming
// it into a metrics collector with binCycles-wide utilization bins. A
// non-nil plan injects engine-layer faults: they activate mid-flight
// during the traced run (EvLinkFault events land in the recording),
// without re-planning the schedule around them.
func TraceAllReduce(topo *topology.Topology, alg AlgSpec, dataBytes int64, engine Engine, binCycles float64, plan *faults.Plan, opts algorithms.Options) (*TracedResult, error) {
	rec := &obs.Recorder{}
	met := obs.NewMetrics(binCycles)
	cfg := network.DefaultConfig()
	cfg.Faults = plan
	cfg.Tracer = obs.Tee(rec, met)
	p, s, err := measure(topo, alg, dataBytes, engine, cfg, opts)
	if err != nil {
		return nil, err
	}
	return &TracedResult{
		Point:   p,
		Sched:   s,
		Meta:    network.TraceMetaFor(s, ""),
		Events:  rec,
		Metrics: met,
	}, nil
}
