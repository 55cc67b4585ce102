package obs

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

func sampleReport() *RunReport {
	r := NewRunReport("allreduce-bench", "single")
	r.StartedAt = "2026-08-08T00:00:00Z"
	r.Topology = &TopologyInfo{Name: "mesh-4x4", Nodes: 16, Links: 48, Fingerprint: "deadbeef"}
	r.Algorithm = "multitree"
	r.DataBytes = 1 << 20
	r.Engine = "fluid"
	r.Options = map[string]string{"chunks": "4"}
	r.Planner = &PlanReport{
		TotalNanos: 2e9,
		Phases: []PhaseReport{
			{Phase: "tree-growth", Runs: 1, WallNanos: 15e8, Share: 0.75,
				PlanCounters: PlanCounters{Steps: 12, NodesAttached: 60}},
			{Phase: "lowering", Runs: 1, WallNanos: 5e8, Share: 0.25,
				PlanCounters: PlanCounters{Transfers: 120}},
		},
	}
	r.Sim = &SimReport{Engine: "fluid", Events: 4096, Cycles: 12345, BandwidthGBps: 99.5}
	r.Wall = &WallSplit{PlanNanos: 2e9, CompileNanos: 1e8, SimulateNanos: 3e8, TotalNanos: 24e8}
	r.Points = []ReportPoint{{Topology: "mesh-4x4", Algorithm: "multitree", DataBytes: 1 << 20, Cycles: 12345, BandwidthGBps: 99.5, WallNanos: 5e8, PlanNanos: 4e8}}
	return r
}

func TestRunReportRoundTrip(t *testing.T) {
	r := sampleReport()
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRunReport(&buf)
	if err != nil {
		t.Fatalf("round trip failed: %v", err)
	}
	if got.Tool != "allreduce-bench" || got.Mode != "single" {
		t.Fatalf("tool/mode lost: %+v", got)
	}
	if got.Env.GoVersion == "" || got.Env.GOMAXPROCS < 1 {
		t.Fatalf("env not captured: %+v", got.Env)
	}
	if got.Topology == nil || got.Topology.Fingerprint != "deadbeef" {
		t.Fatalf("topology lost: %+v", got.Topology)
	}
	if got.Planner == nil || len(got.Planner.Phases) != 2 || got.Planner.Phases[0].Phase != "tree-growth" {
		t.Fatalf("planner section lost: %+v", got.Planner)
	}
	if got.Wall == nil || got.Wall.TotalNanos != 24e8 {
		t.Fatalf("wall split lost: %+v", got.Wall)
	}
	if len(got.Points) != 1 || got.Points[0].PlanNanos != 4e8 {
		t.Fatalf("points lost: %+v", got.Points)
	}
}

// TestDecodeRunReportRejects: each input fails for the reason it names.
// Earlier schema ids are refused like any foreign one.
func TestDecodeRunReportRejects(t *testing.T) {
	const env = `"tool":"x","env":{"go_version":"go1.22","goos":"linux","goarch":"amd64","gomaxprocs":1,"num_cpu":1}`
	cases := map[string]struct{ in, reason string }{
		"unknown field":  {`{"schema":"` + RunReportSchema + `",` + env + `,"surprise":1}`, `unknown field "surprise"`},
		"wrong schema":   {`{"schema":"multitree-runreport/v0",` + env + `}`, `schema "multitree-runreport/v0"`},
		"missing schema": {`{` + env + `}`, `schema ""`},
		"trailing data":  {`{"schema":"` + RunReportSchema + `",` + env + `} {"another":true}`, "trailing data"},
		"not json":       {`phase,runs\n`, "invalid run report"},
		"v5 shard field": {`{"schema":"` + RunReportSchema + `",` + env + `,"planner":{"total_ns":1,"phases":[{"phase":"tree-growth","runs":1,"wall_ns":1,"share":1,"shard_turns":10}]}}`,
			`unknown field "shard_turns"`},
	}
	for _, v := range []string{"v1", "v2", "v3", "v4"} {
		schema := "multitree-runreport/" + v
		cases[v+" schema"] = struct{ in, reason string }{`{"schema":"` + schema + `",` + env + `}`, `schema "` + schema + `"`}
	}
	for name, tc := range cases {
		_, err := DecodeRunReport(strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.reason) {
			t.Errorf("%s: decode error %v, want one naming %s", name, err, tc.reason)
		}
	}
}

func TestSimReportFrom(t *testing.T) {
	if SimReportFrom(nil) != nil {
		t.Fatal("nil Metrics should yield nil SimReport")
	}
	m := NewMetrics(0)
	m.Emit(Event{Kind: EvStepEnter})
	m.Emit(Event{Kind: EvLinkAcquired, Link: 2, At: 0, Dur: 10, Busy: 10})
	m.Emit(Event{Kind: EvNIEntryActivated, Node: 1})
	s := SimReportFrom(m)
	if s.Events != 3 || s.StepEnters != 1 || s.LinksActive != 1 || s.LinkBusyCycles != 10 || s.NIEntriesIssued != 1 {
		t.Fatalf("sim report: %+v", s)
	}
}

// FuzzDecodeRunReport feeds arbitrary bytes to the strict decoder behind
// -validate-report. It must never panic, must allocate at most 64 bytes
// per input byte plus 1 MiB (the decoders' bound), and an accepted report
// must re-encode to a fixed point: writing the decoded report and decoding it
// again writes the same bytes. Bytes rather than DeepEqual, because
// omitempty drops an empty "points": [] that decoded as non-nil. Seeds
// live in testdata/fuzz/FuzzDecodeRunReport: a report from each tool
// and mode, and rejected ones, among them a report under the retired v1
// schema id.
func FuzzDecodeRunReport(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var rep *RunReport
		var err error
		used := allocBytes(func() { rep, err = DecodeRunReport(bytes.NewReader(data)) })
		if limit := 64*uint64(len(data)) + 1<<20; used > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), used, limit)
		}
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := rep.Write(&once); err != nil {
			t.Fatalf("accepted report does not write: %v", err)
		}
		back, err := DecodeRunReport(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("re-written report rejected: %v\n%s", err, once.Bytes())
		}
		if err := back.Write(&twice); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("report is not a fixed point:\n%s\nvs\n%s", once.Bytes(), twice.Bytes())
		}
	})
}

// allocBytes returns the heap bytes fn allocates.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
