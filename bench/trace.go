package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"multitree/internal/obs"
)

// Layer span names. Each wraps one call into a layer of the program, made
// from this package; the planner phases arrive through planObserver. The
// op span is the root of every op; its self time is the unattributed
// remainder.
const (
	spanOp             = "op"
	spanBuild          = "algorithms.build"
	spanGrow           = "core.grow"
	spanScore          = "core.score"
	spanShardMerge     = "core.shard_merge"
	spanLower          = "collective.lower"
	spanDecode         = "collective.decode"
	spanValidate       = "collective.validate"
	spanLookup         = "plancache.lookup"
	spanStore          = "plancache.store"
	spanNICompile      = "ni.compile"
	spanPacket         = "network.packet"
	spanFluid          = "network.fluid"
	spanTraining       = "training"
	spanPlannerUnknown = "planner.other"
)

// span is one recorded interval. Times are offsets from the tracer's
// epoch; parent indexes the enclosing span (-1 for an op root).
type span struct {
	name       string
	start, end time.Duration
	parent     int32
	op         int32
}

// tracer records spans in memory for the traced passes of a run, plus the
// per-layer counts taken at the same boundaries. A nil *tracer is the
// untraced mode: every method returns at once and observer() is nil, so
// the program runs exactly as without the benchmark. With gcProbe set, the
// end of every span also forces a GC and keeps the largest live heap found.
type tracer struct {
	epoch  time.Time
	spans  []span
	stack  []int32
	op     int32
	counts map[string]float64

	// storing is set once the current build's cache lookup missed: the
	// next cache-lookup phase algorithms.Build reports is the store.
	storing bool

	// err records the first unbalanced span end; the runner fails the op.
	err error

	gcProbe  bool
	live     [1]metrics.Sample
	peakLive uint64
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), counts: map[string]float64{}}
	t.live[0].Name = "/gc/heap/live:bytes"
	return t
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	if name == spanBuild {
		t.storing = false
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.epoch), parent: parent, op: t.op})
	t.stack = append(t.stack, int32(len(t.spans)-1))
}

func (t *tracer) end(name string) {
	if t == nil {
		return
	}
	n := len(t.stack)
	if n == 0 || t.spans[t.stack[n-1]].name != name {
		if t.err == nil {
			t.err = fmt.Errorf("trace: span %q ended out of order", name)
		}
		return
	}
	t.spans[t.stack[n-1]].end = time.Since(t.epoch)
	t.stack = t.stack[:n-1]
	if t.gcProbe {
		runtime.GC()
		metrics.Read(t.live[:])
		t.peakLive = max(t.peakLive, t.live[0].Value.Uint64())
	}
}

func (t *tracer) add(metric string, v float64) {
	if t == nil {
		return
	}
	t.counts[metric] += v
}

// beginOp opens the root span of op id.
func (t *tracer) beginOp(id int) {
	if t == nil {
		return
	}
	t.op = int32(id)
	t.begin(spanOp)
}

// observer returns the planner observer feeding this tracer, or nil when
// untraced, so planner calls take their observation-free path.
func (t *tracer) observer() obs.PlanObserver {
	if t == nil {
		return nil
	}
	return planObserver{t}
}

// layerTime is one span name's aggregate over a run: busy is the summed
// span duration, self the part not covered by child spans.
type layerTime struct {
	busy, self time.Duration
}

// layerTimes aggregates the recorded spans by name. A span's self time is
// its duration minus its direct children's durations; children nest inside
// their parent, so self times of all spans sum to the op roots' durations.
func layerTimes(spans []span) map[string]layerTime {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	out := map[string]layerTime{}
	for i, s := range spans {
		lt := out[s.name]
		lt.busy += s.end - s.start
		lt.self += self[i]
		out[s.name] = lt
	}
	return out
}

// writeChromeTrace writes the spans as Chrome-trace complete events, one
// track per run, with the op id and parent span index in each event's args.
func writeChromeTrace(w io.Writer, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start) / 1e3,
			Dur:  float64(s.end-s.start) / 1e3,
			Args: map[string]any{"op": s.op, "parent": s.parent},
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

// sortedNames returns the map's keys in order, for stable printing.
func sortedNames(m map[string]layerTime) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// planObserver turns the planner's existing phase callbacks into spans and
// counts. It adds no emit site to the program: algorithms.Build, the
// MultiTree planner, lowering and the plan cache already report here.
type planObserver struct{ t *tracer }

func (o planObserver) PhaseStart(ph obs.PlanPhase) { o.t.begin(o.spanName(ph)) }

func (o planObserver) PhaseEnd(ph obs.PlanPhase, c obs.PlanCounters) {
	t := o.t
	name := o.spanName(ph)
	switch ph {
	case obs.PhaseTreeGrowth:
		t.add("core.grow.searches", float64(c.Searches))
		t.add("core.grow.search_misses", float64(c.SearchMisses))
		t.add("core.grow.links_scanned", float64(c.LinksScanned))
	case obs.PhaseLowering:
		t.add("collective.lower.transfers", float64(c.Transfers))
	case obs.PhaseCacheLookup:
		if name == spanStore {
			t.add("plancache.bytes_written", float64(c.CacheBytes))
			break
		}
		t.add("plancache.lookups", 1)
		t.add("plancache.mem_hits", float64(c.MemCacheHits))
		t.add("plancache.disk_hits", float64(c.CacheHits-c.MemCacheHits))
		t.add("plancache.misses", float64(c.CacheMisses))
		if c.MemCacheHits == 0 {
			t.add("collective.ir_bytes_read", float64(c.CacheBytes))
		}
		if c.CacheMisses > 0 {
			t.storing = true
		}
	}
	t.end(name)
}

func (planObserver) PlanProgress(obs.PlanPhase, int64, int64) {}
func (planObserver) Pipeline(int, int)                        {}

func (o planObserver) spanName(ph obs.PlanPhase) string {
	switch ph {
	case obs.PhaseTreeGrowth:
		return spanGrow
	case obs.PhaseVariantScore:
		return spanScore
	case obs.PhaseShardMerge:
		return spanShardMerge
	case obs.PhaseLowering:
		return spanLower
	case obs.PhaseNICompile:
		return spanNICompile
	case obs.PhaseDecode:
		return spanDecode
	case obs.PhaseValidate:
		return spanValidate
	case obs.PhaseCacheLookup:
		if o.t.storing {
			return spanStore
		}
		return spanLookup
	}
	return spanPlannerUnknown
}
