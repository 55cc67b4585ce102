package experiments

import (
	"fmt"

	"multitree/internal/algorithms"
	"multitree/internal/faults"
	"multitree/internal/topology"
)

// ResiliencePoint is one measurement of the resilience sweep: an
// algorithm re-planned on a degraded fabric, simulated by one engine.
// Unsupported rows (Supported=false) record that the algorithm's
// Supports predicate rejected the degraded graph — e.g. 2D-Ring once the
// rebuilt topology loses its grid coordinates — with the reason in Note.
type ResiliencePoint struct {
	Topology      string  `json:"topology"`
	FailedLinks   int     `json:"failed_links"`
	FaultSpec     string  `json:"fault_spec,omitempty"`
	Algorithm     string  `json:"algorithm"`
	Engine        string  `json:"engine"`
	DataBytes     int64   `json:"data_bytes"`
	Cycles        uint64  `json:"cycles"`
	BandwidthGBps float64 `json:"bandwidth_gbps"`
	Supported     bool    `json:"supported"`
	Note          string  `json:"note,omitempty"`
}

// Resilience sweeps completion time against the number of failed links:
// for each failure count 0..maxFailed it draws a deterministic
// connectivity-preserving fault plan (seeded), re-plans every algorithm
// of the original topology's menu against the degraded fabric, and
// simulates the survivors on both engines — the two stay within the
// cross-validation tolerance, which the resilience test asserts.
// Algorithms the degraded graph no longer supports yield unsupported
// rows instead of errors.
func Resilience(topo *topology.Topology, maxFailed int, seed int64, dataBytes int64) ([]ResiliencePoint, error) {
	if maxFailed < 0 {
		return nil, fmt.Errorf("resilience: negative failed-link count %d", maxFailed)
	}
	var out []ResiliencePoint
	for failed := 0; failed <= maxFailed; failed++ {
		plan, err := faults.RandomLinkFailures(topo, failed, seed)
		if err != nil {
			return nil, fmt.Errorf("resilience: %w", err)
		}
		deg, err := faults.Apply(topo, plan)
		if err != nil {
			return nil, fmt.Errorf("resilience: %d failures: %w", failed, err)
		}
		for _, alg := range Algorithms(topo) {
			spec, _, err := algorithms.Resolve(alg.Name)
			if err != nil {
				return nil, err
			}
			point := ResiliencePoint{
				Topology: topo.Name(), FailedLinks: failed, FaultSpec: plan.String(),
				Algorithm: alg.Name, DataBytes: dataBytes,
			}
			if !spec.Supports(deg.Topo) {
				point.Note = "unsupported on degraded topology"
				for _, e := range []Engine{Fluid, Packet} {
					p := point
					p.Engine = e.String()
					out = append(out, p)
				}
				continue
			}
			for _, e := range []Engine{Fluid, Packet} {
				p, err := MeasureAllReduce(deg.Topo, alg, dataBytes, e, algorithms.Options{})
				if err != nil {
					return nil, fmt.Errorf("resilience: %d failures, %s/%s: %w", failed, alg.Name, e, err)
				}
				pt := point
				pt.Engine = e.String()
				pt.Cycles = p.Cycles
				pt.BandwidthGBps = p.BandwidthGBps
				pt.Supported = true
				out = append(out, pt)
			}
		}
	}
	return out, nil
}
