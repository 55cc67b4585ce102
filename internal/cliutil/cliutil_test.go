package cliutil

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"multitree/internal/obs"
)

func TestIsTerminalOnPipe(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	defer w.Close()
	if IsTerminal(r) || IsTerminal(w) {
		t.Error("pipe ends report as terminals")
	}
}

func TestProgressFor(t *testing.T) {
	if p, err := ProgressFor("off"); err != nil || p != nil {
		t.Errorf("off: %v %v", p, err)
	}
	if p, err := ProgressFor(""); err != nil || p != nil {
		t.Errorf("empty: %v %v", p, err)
	}
	p, err := ProgressFor("on")
	if err != nil || p == nil {
		t.Fatalf("on: %v %v", p, err)
	}
	// Under go test, stderr is not a character device, so forced-on
	// must select the plain style and auto must stay silent.
	if p.Interactive && !IsTerminal(os.Stderr) {
		t.Error("forced-on progress is interactive on a non-terminal stderr")
	}
	if _, err := ProgressFor("sometimes"); err == nil {
		t.Error("bad mode accepted")
	}
}

func TestWriteAndValidateRunReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	rep := obs.NewRunReport("cliutil-test", "single")
	rep.Algorithm = "multitree"
	if err := WriteRunReport(path, rep); err != nil {
		t.Fatal(err)
	}
	got, err := ValidateRunReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tool != "cliutil-test" || got.Mode != "single" || got.Algorithm != "multitree" {
		t.Errorf("round trip lost fields: %+v", got)
	}
	// Corrupt the file: validation must fail loudly.
	if err := os.WriteFile(path, []byte(`{"schema":"`+obs.RunReportSchema+`","bogus":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateRunReport(path); err == nil || !strings.Contains(err.Error(), `unknown field "bogus"`) {
		t.Errorf("unknown field: validation error %v", err)
	}
}

// TestRunLifecycle drives a full StartRun/Finish cycle: observer
// fan-out, the observed sim, report and plan CSV on disk, both
// validating.
func TestRunLifecycle(t *testing.T) {
	dir := t.TempDir()
	reportPath := filepath.Join(dir, "report.json")
	csvPath := filepath.Join(dir, "plan.csv")
	run, err := StartRun(Config{
		Tool: "cliutil-test", Mode: "single",
		ReportPath: reportPath, PlanCSVPath: csvPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.Profile == nil {
		t.Fatal("report requested but no profile allocated")
	}
	o := run.PlanObserver()
	if o == nil {
		t.Fatal("PlanObserver nil with a live profile")
	}
	o.PhaseStart(obs.PhaseTreeGrowth)
	o.PhaseEnd(obs.PhaseTreeGrowth, obs.PlanCounters{NodesAttached: 12})

	m := obs.NewMetrics(0)
	m.Emit(obs.Event{Kind: obs.EvStepEnter})
	m.Emit(obs.Event{Kind: obs.EvStepEnter})
	run.ObserveSim(m)
	if run.Report.Sim == nil || run.Report.Sim.StepEnters != 2 || run.Report.Sim.Events != 2 {
		t.Errorf("observed sim = %+v, want 2 events, 2 step enters", run.Report.Sim)
	}

	if err := run.Finish(); err != nil {
		t.Fatal(err)
	}
	rep, err := ValidateRunReport(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Planner == nil || len(rep.Planner.Phases) == 0 {
		t.Error("report missing planner phases")
	}
	if rep.Wall == nil || rep.Wall.TotalNanos <= 0 {
		t.Errorf("report wall split: %+v", rep.Wall)
	}
	if rep.Sim == nil || rep.Sim.AllocBytes == 0 {
		t.Errorf("report sim missing alloc growth: %+v", rep.Sim)
	}
	csv, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csv), "phase,runs,wall_ns,share") {
		t.Errorf("plan CSV header: %q", string(csv))
	}
}

// TestRunDisabled: a zero-config run keeps the nil-observer fast path.
func TestRunDisabled(t *testing.T) {
	run, err := StartRun(Config{Tool: "cliutil-test"})
	if err != nil {
		t.Fatal(err)
	}
	if run.Profile != nil || run.PlanObserver() != nil {
		t.Error("disabled run allocated an observer")
	}
	if err := run.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestRegisterFlags pins the shared flag surface every tool gets: exactly
// these names with these defaults, each filling its Config field.
func TestRegisterFlags(t *testing.T) {
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	cfg := RegisterFlags(fs)
	want := map[string]string{
		"cpuprofile":        "",
		"memprofile":        "",
		"report":            "",
		"progress":          "auto",
		"plan-cache":        "",
		"plan-mem-cache-mb": "0",
		"verify-plan":       "false",
	}
	got := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	if len(got) != len(want) {
		t.Errorf("registered %d flags %v, want %d", len(got), got, len(want))
	}
	for name, def := range want {
		if d, ok := got[name]; !ok || d != def {
			t.Errorf("-%s: default %q (defined %v), want %q", name, d, ok, def)
		}
	}
	if *cfg != (Config{ProgressMode: "auto"}) {
		t.Errorf("defaults fill %+v", *cfg)
	}
	err := fs.Parse([]string{
		"-cpuprofile", "c", "-memprofile", "m", "-report", "r", "-progress", "off",
		"-plan-cache", "d", "-plan-mem-cache-mb", "64", "-verify-plan",
	})
	if err != nil {
		t.Fatal(err)
	}
	wantCfg := Config{
		CPUProfile: "c", MemProfile: "m", ReportPath: "r", ProgressMode: "off",
		PlanCacheDir: "d", PlanMemCacheMB: 64, VerifyPlan: true,
	}
	if *cfg != wantCfg {
		t.Errorf("parsed flags fill %+v, want %+v", *cfg, wantCfg)
	}
}

// TestParseSize: suffixes scale, and negative or int64-overflowing sizes
// are rejected instead of wrapping (17179869185GiB used to read as 1 GiB,
// 9000000000GiB as a negative size).
func TestParseSize(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
		ok   bool
	}{
		{"64", 64, true},
		{"0", 0, true},
		{"256KiB", 256 << 10, true},
		{"8MiB", 8 << 20, true},
		{" 2 GiB", 2 << 30, true},
		{"8589934591GiB", 8589934591 << 30, true}, // the largest whole GiB count
		{"9223372036854775807", 1<<63 - 1, true},
		{"8589934592GiB", 0, false},
		{"17179869185GiB", 0, false},
		{"9000000000GiB", 0, false},
		{"9223372036854775808", 0, false},
		{"-1", 0, false},
		{"-1KiB", 0, false},
		{"", 0, false},
		{"KiB", 0, false},
		{"1.5MiB", 0, false},
		{"1TiB", 0, false},
	} {
		got, err := ParseSize(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("ParseSize(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
		}
		if !tc.ok && err == nil {
			t.Errorf("ParseSize(%q) = %d, want an error", tc.in, got)
		}
	}
}

// TestCheckBin: -bin takes 0 (totals) or a finite width of at least one
// cycle; NaN, infinities, negatives and sub-cycle widths are rejected
// with an error that names the flag.
func TestCheckBin(t *testing.T) {
	for _, bin := range []float64{0, 1, 100, 1000, 1e12} {
		if err := CheckBin(bin); err != nil {
			t.Errorf("CheckBin(%v) = %v, want nil", bin, err)
		}
	}
	for _, bin := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 1e-6, 0.5} {
		if err := CheckBin(bin); err == nil || !strings.Contains(err.Error(), "-bin") {
			t.Errorf("CheckBin(%v) = %v, want an error naming -bin", bin, err)
		}
	}
}

// TestChromeTraceOnlyForPath pins that a run records its events only when
// a Chrome trace is requested, and that the recording reaches the file.
func TestChromeTraceOnlyForPath(t *testing.T) {
	if rec, write := ChromeTrace(""); rec != nil {
		t.Fatalf("no -trace path: tracer %v, want nil", rec)
	} else {
		write(obs.TraceMeta{}) // a no-op, writes nothing
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	rec, write := ChromeTrace(path)
	if rec == nil {
		t.Fatal("-trace path: nil tracer")
	}
	rec.Emit(obs.Event{Kind: obs.EvLinkAcquired, Dur: 4, Busy: 4, Step: 1})
	write(obs.TraceMeta{LinkNames: []string{"n0->n1"}})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"name":"t0 f0 s1","ph":"X"`) {
		t.Errorf("trace file lacks the recorded link span:\n%s", data)
	}
}
