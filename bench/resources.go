package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
)

// usage is a snapshot of the process's resource counters, from the
// standard library only: getrusage for memory high-water mark and page
// faults, runtime/metrics for GC and allocation, MemStats for pause time.
type usage struct {
	maxRSSKiB      int64
	minflt, majflt int64
	gcCycles       uint64
	gcCPU, allCPU  float64
	allocBytes     uint64
	pauseNs        uint64
}

var usageMetrics = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readUsage() usage {
	var u usage
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		u.maxRSSKiB = int64(ru.Maxrss) // KiB on Linux
		u.minflt, u.majflt = int64(ru.Minflt), int64(ru.Majflt)
	}
	s := make([]metrics.Sample, len(usageMetrics))
	for i, name := range usageMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	u.gcCycles = s[0].Value.Uint64()
	u.gcCPU = s[1].Value.Float64()
	u.allCPU = s[2].Value.Float64()
	u.allocBytes = s[3].Value.Uint64()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u.pauseNs = ms.PauseTotalNs
	return u
}

// usageMetricsBetween reports the resource columns over [a, b] for ops
// timed ops.
func usageMetricsBetween(a, b usage, ops int) map[string]float64 {
	const mib = 1 << 20
	m := map[string]float64{
		"runtime.peak_rss_mb":     float64(b.maxRSSKiB) / 1024,
		"runtime.minor_faults":    float64(b.minflt - a.minflt),
		"runtime.major_faults":    float64(b.majflt - a.majflt),
		"runtime.gc_cycles":       float64(b.gcCycles - a.gcCycles),
		"runtime.gc_pause_ms":     float64(b.pauseNs-a.pauseNs) / 1e6,
		"runtime.gc_cpu_frac":     0,
		"runtime.alloc_mb_per_op": float64(b.allocBytes-a.allocBytes) / mib / float64(max(ops, 1)),
	}
	if cpu := b.allCPU - a.allCPU; cpu > 0 {
		m["runtime.gc_cpu_frac"] = (b.gcCPU - a.gcCPU) / cpu
	}
	return m
}
