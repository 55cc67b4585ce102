package experiments_test

import (
	"runtime"
	"testing"

	"multitree/internal/algorithms"
	"multitree/internal/experiments"
	"multitree/internal/topology"
)

// allocBytes returns the heap bytes fn allocates.
func allocBytes(t *testing.T, fn func() error) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestTraceAllReduceStreams pins the single-run path's memory to the
// bare simulation's: with no extra tracer attached, TraceAllReduce
// streams every event into its metrics collector and keeps none, so a
// 2 MiB 2D-Ring packet run on the 8x8 Torus (5.5M events) allocates at
// most twice what MeasureAllReduce does for the same point.
func TestTraceAllReduceStreams(t *testing.T) {
	topo := topology.Torus(8, 8, cfg())
	alg := experiments.AlgSpec{Name: "2d-ring"}
	const size = 2 << 20
	bare := allocBytes(t, func() error {
		_, err := experiments.MeasureAllReduce(topo, alg, size, experiments.Packet, algorithms.Options{})
		return err
	})
	traced := allocBytes(t, func() error {
		_, err := experiments.TraceAllReduce(topo, alg, size, experiments.Packet, 1000, nil, nil, algorithms.Options{})
		return err
	})
	t.Logf("MeasureAllReduce %d bytes, TraceAllReduce %d bytes", bare, traced)
	if traced > 2*bare {
		t.Fatalf("TraceAllReduce allocated %d bytes, more than 2x MeasureAllReduce's %d", traced, bare)
	}
}
