// Command bench is the repository's end-to-end benchmark. It runs one
// named workload per process from a single closed-loop client — one op at
// a time, with as many Ps (GOMAXPROCS) as the op runs goroutines — and
// prints every metric as "<workload> <metric> <value> <unit>", then one
// JSON result line.
//
//	bench --workload allreduce-packet --seed 1 --seconds 24 --trace 0
//
// A run sets the workload up three times — fixture plus its warm-up ops,
// setup_s is the median — then runs as many whole timed passes as take
// --seconds on the reference host, a fixed op count for a given --seconds.
// A pass is the workload's fixed op mix in an order drawn from --seed.
// With --trace 0 the run reports the end-to-end metrics over all timed
// ops, then reruns the workload's probe ops untimed for peak_live_heap_mb
// (see probeHeap). With --trace 1 it alternates untraced and traced
// passes and reports the per-layer metrics: span busy and self times taken
// around each layer call, the layers' counts, resource columns, and the
// tracing overhead. --spans writes the traced spans as Chrome-trace JSON.
//
// Every op is checked: repeats must reproduce their simulated statistics,
// and served plans must match their cold build byte for byte. Any failure
// makes the result incorrect and the exit status 1.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"multitree/bench/stats"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 3

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by untraced
// runs.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"peak_live_heap_mb", "MiB"},
}

// perLayer are the metrics of single layers, reported by traced runs. Busy
// times include nested layers, self times exclude them.
var perLayer = []metricDef{
	{"network.packet.busy_s", "s"},
	{"network.packet.runs", "count"},
	{"network.packet.flits", "count"},
	{"network.packet.host_ns_per_flit", "ns"},
	{"network.fluid.busy_s", "s"},
	{"network.fluid.runs", "count"},
	{"network.fluid.transfers", "count"},
	{"network.fluid.host_us_per_transfer", "us"},
	{"core.grow.busy_s", "s"},
	{"core.grow.searches", "count"},
	{"core.grow.links_scanned", "count"},
	{"core.grow.search_miss_frac", "ratio"},
	{"collective.lower.busy_s", "s"},
	{"collective.lower.transfers", "count"},
	{"collective.decode.busy_s", "s"},
	{"collective.validate.busy_s", "s"},
	{"collective.ir_bytes_read", "bytes"},
	{"plancache.lookup.self_s", "s"},
	{"plancache.store.busy_s", "s"},
	{"plancache.disk_hits", "count"},
	{"plancache.misses", "count"},
	{"plancache.mem_hits", "count"},
	{"plancache.mem_hit_ratio", "ratio"},
	{"plancache.bytes_written", "bytes"},
	{"ni.compile.busy_s", "s"},
	{"ni.table_entries", "count"},
	{"algorithms.build.self_s", "s"},
	{"training.self_s", "s"},
	{"training.allreduce_calls", "count"},
	{"training.allreduce_bytes", "bytes"},
	{"runtime.peak_rss_mb", "MiB"},
	{"runtime.minor_faults", "count"},
	{"runtime.major_faults", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.alloc_mb_per_op", "MiB"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.unattributed_frac", "ratio"},
}

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spans    string // Chrome-trace output path; empty for none
	env
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line every run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is everything a run measured.
type report struct {
	result
	simDigest string
	notes     []string // extra "<workload> <what> <value> <unit>" lines
	errs      []error
}

func main() {
	cfg := config{}
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+workloadNames())
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed for the op order")
	flag.Float64Var(&cfg.seconds, "seconds", 24, "measured op time per run on the reference host, in seconds; sets the number of whole passes")
	trace := flag.Int("trace", 0, "1 for a traced run reporting per-layer metrics, 0 for end-to-end metrics")
	flag.StringVar(&cfg.spans, "spans", "", "with --trace 1, write the spans as Chrome-trace JSON to this file")
	flag.StringVar(&cfg.tmpDir, "tmpdir", os.TempDir(), "directory for the plan cache a workload creates")
	flag.Parse()
	if flag.NArg() != 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	cfg.trace = *trace == 1
	if _, ok := lookupWorkload(cfg.workload); !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", cfg.workload, workloadNames())
		os.Exit(2)
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err := rep.print(os.Stdout, cfg.workload); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	for _, err := range rep.errs {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	if !rep.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// run executes one workload run. An error means the run could not measure
// at all (set-up failed); op failures are counted in the report instead.
func run(cfg config) (*report, error) {
	w, _ := lookupWorkload(cfg.workload)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(min(w.procs, runtime.NumCPU())))
	r := &runner{rng: rand.New(rand.NewPCG(cfg.seed, 0x6d756c7469747265)), fps: map[string]string{}}
	var (
		fx    *fixture
		setup []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if fx != nil && fx.close != nil {
			fx.close()
		}
		start := time.Now()
		var err error
		if fx, err = w.setup(cfg.env); err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		// The warm-up ops fill caches and record reference outputs. Set-up
		// lasts until the first timed op could start, less the benchmark's
		// own checks.
		s := time.Since(start).Seconds()
		for _, o := range fx.warmup {
			s += r.runOp(o, nil)
		}
		setup = append(setup, s)
	}
	if fx.close != nil {
		defer fx.close()
	}

	var untraced, traced []float64   // op latencies, seconds
	byKind := map[string][]float64{} // untraced latencies by op key
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	u0 := readUsage()
	for p := range timedPasses(cfg.seconds, w.passSeconds, cfg.trace) {
		t := tr
		if p%2 == 0 {
			t = nil
		}
		for _, o := range fx.pass(r.rng) {
			d := r.runOp(o, t)
			if t != nil {
				traced = append(traced, d)
			} else {
				untraced = append(untraced, d)
				byKind[o.key] = append(byKind[o.key], d)
			}
		}
	}
	u1 := readUsage()
	var peakLive uint64
	if !cfg.trace {
		probe := fx.warmup
		if fx.probe != nil {
			probe = fx.probe()
		}
		peakLive = r.probeHeap(probe)
	}

	rep := &report{errs: r.errs}
	rep.Attempted, rep.Failed = r.attempted, r.failed
	rep.Correct = r.failed == 0
	rep.simDigest = r.digest(fx)
	rep.Metrics = map[string]metricValue{}
	if !cfg.trace {
		tail, q := stats.Tail(untraced)
		rep.set("setup_s", stats.Median(setup))
		rep.set("ops_per_s", rate(untraced))
		rep.set("op_p50_ms", stats.GroupMedian(byKind)*1e3)
		rep.set("op_tail_ms", tail*1e3)
		rep.set("peak_live_heap_mb", float64(peakLive)/(1<<20))
		rep.note("ops", float64(len(untraced)), "count")
		rep.note("op_tail_quantile", q, "quantile")
		return rep, nil
	}

	layers := layerTimes(tr.spans)
	opWall := layers[spanOp].busy.Seconds()
	c := tr.counts
	busy := func(name string) float64 { return layers[name].busy.Seconds() }
	self := func(name string) float64 { return layers[name].self.Seconds() }
	rep.set("network.packet.busy_s", busy(spanPacket))
	rep.set("network.packet.runs", c["network.packet.runs"])
	rep.set("network.packet.flits", c["network.packet.flits"])
	rep.set("network.packet.host_ns_per_flit", ratio(busy(spanPacket)*1e9, c["network.packet.flits"]))
	rep.set("network.fluid.busy_s", busy(spanFluid))
	rep.set("network.fluid.runs", c["network.fluid.runs"])
	rep.set("network.fluid.transfers", c["network.fluid.transfers"])
	rep.set("network.fluid.host_us_per_transfer", ratio(busy(spanFluid)*1e6, c["network.fluid.transfers"]))
	rep.set("core.grow.busy_s", busy(spanGrow))
	rep.set("core.grow.searches", c["core.grow.searches"])
	rep.set("core.grow.links_scanned", c["core.grow.links_scanned"])
	rep.set("core.grow.search_miss_frac", ratio(c["core.grow.search_misses"], c["core.grow.searches"]))
	rep.set("collective.lower.busy_s", busy(spanLower))
	rep.set("collective.lower.transfers", c["collective.lower.transfers"])
	rep.set("collective.decode.busy_s", busy(spanDecode))
	rep.set("collective.validate.busy_s", busy(spanValidate))
	rep.set("collective.ir_bytes_read", c["collective.ir_bytes_read"])
	rep.set("plancache.lookup.self_s", self(spanLookup))
	rep.set("plancache.store.busy_s", busy(spanStore))
	rep.set("plancache.disk_hits", c["plancache.disk_hits"])
	rep.set("plancache.misses", c["plancache.misses"])
	rep.set("plancache.mem_hits", c["plancache.mem_hits"])
	rep.set("plancache.mem_hit_ratio", ratio(c["plancache.mem_hits"], c["plancache.lookups"]))
	rep.set("plancache.bytes_written", c["plancache.bytes_written"])
	rep.set("ni.compile.busy_s", busy(spanNICompile))
	rep.set("ni.table_entries", c["ni.table_entries"])
	rep.set("algorithms.build.self_s", self(spanBuild))
	rep.set("training.self_s", self(spanTraining))
	rep.set("training.allreduce_calls", c["training.allreduce_calls"])
	rep.set("training.allreduce_bytes", c["training.allreduce_bytes"])
	for name, v := range usageMetricsBetween(u0, u1, len(untraced)+len(traced)) {
		rep.set(name, v)
	}
	rep.set("bench.trace_overhead_frac", 1-rate(traced)/rate(untraced))
	rep.set("bench.unattributed_frac", ratio(self(spanOp), opWall))

	// Each layer's self time; with the unattributed remainder they sum to
	// the traced ops' wall.
	var attributed float64
	for _, name := range sortedNames(layers) {
		if name == spanOp {
			continue
		}
		lt := layers[name]
		attributed += lt.self.Seconds()
		rep.note("self_s."+name, lt.self.Seconds(), "s")
	}
	rep.note("traced_op_wall_s", opWall, "s")
	rep.note("attributed_frac", ratio(attributed, opWall), "ratio")
	if cfg.spans != "" {
		if err := writeSpans(cfg.spans, tr.spans); err != nil {
			rep.errs = append(rep.errs, err)
		}
	}
	return rep, nil
}

// timedPasses is how many timed passes measure about seconds when one
// pass takes passSeconds: the nearest whole number, at least one. A traced
// run alternates untraced and traced passes, so it makes an even number,
// at least two.
func timedPasses(seconds, passSeconds float64, traced bool) int {
	n := max(1, int(math.Round(seconds/passSeconds)))
	if traced {
		n += n % 2
	}
	return n
}

// rate is ops per second of op time.
func rate(lat []float64) float64 {
	return float64(len(lat)) / sum(lat)
}

// runner runs ops and checks their outputs.
type runner struct {
	rng               *rand.Rand
	fps               map[string]string // op key -> fingerprint of its first run
	attempted, failed int
	errs              []error
}

// probeHeap runs ops untimed with a forced GC at the end of every layer
// span, and returns the largest live heap a GC found. Forced at fixed
// seams, the GCs find the same live data on every run, which the GCs the
// runtime schedules itself do not: they end at points of the op that move
// with timing.
func (r *runner) probeHeap(ops []op) uint64 {
	t := newTracer()
	t.gcProbe = true
	for _, o := range ops {
		r.runOp(o, t)
	}
	return t.peakLive
}

// runOp runs one op and returns its latency in seconds. Preparation,
// fingerprinting and checks happen outside the timed region; a failure
// counts the op as failed.
func (r *runner) runOp(o op, t *tracer) float64 {
	r.attempted++
	fail := func(err error) {
		r.failed++
		if len(r.errs) < 10 {
			r.errs = append(r.errs, fmt.Errorf("op %s: %w", o.key, err))
		}
	}
	if o.prep != nil {
		if err := o.prep(); err != nil {
			fail(err)
			return 0
		}
	}
	t.beginOp(r.attempted)
	start := time.Now()
	fingerprint, err := o.run(t)
	d := time.Since(start).Seconds()
	t.end(spanOp)
	if err == nil && t != nil && t.err != nil {
		err, t.err = t.err, nil
	}
	if err == nil && o.check != nil {
		err = o.check()
	}
	if err == nil {
		fp := fingerprint()
		if want, ok := r.fps[o.key]; !ok {
			r.fps[o.key] = fp
		} else if fp != want {
			err = fmt.Errorf("outputs changed on repeat: %s, first run %s", fp, want)
		}
	}
	if err != nil {
		fail(err)
	}
	return d
}

// digest is the sim_digest: a hash of every op's outputs in key order, so
// it is the same for every seed and pass count.
func (r *runner) digest(fx *fixture) string {
	var lines []string
	for k, v := range r.fps {
		lines = append(lines, k+" "+v)
	}
	sort.Strings(lines)
	if fx.outputs != nil {
		lines = append(lines, fx.outputs()...)
	}
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return fmt.Sprintf("%x", sum[:12])
}

func (rep *report) set(name string, v float64) {
	unit := ""
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				unit = d.unit
			}
		}
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	rep.Metrics[name] = metricValue{Value: v, Unit: unit}
}

func (rep *report) note(what string, v float64, unit string) {
	rep.notes = append(rep.notes, fmt.Sprintf("%s %.6g %s", what, v, unit))
}

// print writes the metric lines, the sim_digest line, and the JSON result
// as the last line.
func (rep *report) print(w io.Writer, workload string) error {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(w, "%s %s %.6g %s\n", workload, n, m.Value, m.Unit)
	}
	for _, n := range rep.notes {
		fmt.Fprintf(w, "%s %s\n", workload, n)
	}
	fmt.Fprintf(w, "%s sim_digest %s -\n", workload, rep.simDigest)
	line, err := json.Marshal(rep.result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio is a/b, or 0 when b is 0 (the layer did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
