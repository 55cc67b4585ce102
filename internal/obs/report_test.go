package obs

import (
	"bytes"
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
			{Phase: "tree-growth", Runs: 1, WallNanos: 15e8, Share: 0.75, Steps: 12, NodesAttached: 60},
			{Phase: "lowering", Runs: 1, WallNanos: 5e8, Share: 0.25, Transfers: 120},
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

func TestDecodeRunReportRejects(t *testing.T) {
	cases := map[string]string{
		"unknown field":  `{"schema":"multitree-runreport/v1","tool":"x","env":{"go_version":"go1.22","goos":"linux","goarch":"amd64","gomaxprocs":1,"num_cpu":1},"surprise":1}`,
		"wrong schema":   `{"schema":"multitree-runreport/v0","tool":"x","env":{"go_version":"go1.22","goos":"linux","goarch":"amd64","gomaxprocs":1,"num_cpu":1}}`,
		"missing schema": `{"tool":"x","env":{"go_version":"go1.22","goos":"linux","goarch":"amd64","gomaxprocs":1,"num_cpu":1}}`,
		"trailing data":  `{"schema":"multitree-runreport/v1","tool":"x","env":{"go_version":"go1.22","goos":"linux","goarch":"amd64","gomaxprocs":1,"num_cpu":1}} {"another":true}`,
		"not json":       `phase,runs\n`,
		// v4 is still accepted, but not with the fields v5 dropped.
		"v4 shard field": `{"schema":"multitree-runreport/v4","tool":"x","env":{"go_version":"go1.22","goos":"linux","goarch":"amd64","gomaxprocs":1,"num_cpu":1},"planner":{"total_ns":1,"phases":[{"phase":"tree-growth","runs":1,"wall_ns":1,"share":1,"shard_turns":10}]}}`,
	}
	for name, in := range cases {
		if _, err := DecodeRunReport(strings.NewReader(in)); err == nil {
			t.Errorf("%s: decode accepted invalid input", name)
		}
	}
}

// TestDecodeRunReportAcceptsOlderSchemas pins that every earlier schema
// still decodes when it carries only fields the current struct has.
func TestDecodeRunReportAcceptsOlderSchemas(t *testing.T) {
	for _, schema := range []string{RunReportSchemaV1, RunReportSchemaV2, RunReportSchemaV3, RunReportSchemaV4, RunReportSchema} {
		in := `{"schema":"` + schema + `","tool":"x","env":{"go_version":"go1.22","goos":"linux","goarch":"amd64","gomaxprocs":1,"num_cpu":1},"planner":{"total_ns":1,"phases":[{"phase":"tree-growth","runs":1,"wall_ns":1,"share":1,"searches":5}]}}`
		if _, err := DecodeRunReport(strings.NewReader(in)); err != nil {
			t.Errorf("%s: %v", schema, err)
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
