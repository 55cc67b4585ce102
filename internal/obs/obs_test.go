package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestRecorderAccumulatesAndResets(t *testing.T) {
	r := &Recorder{}
	r.Emit(Event{Kind: EvTransferReady, At: 1})
	r.Emit(Event{Kind: EvTransferDelivered, At: 2})
	if len(r.Events) != 2 {
		t.Fatalf("got %d events, want 2", len(r.Events))
	}
	if r.Events[0].Kind != EvTransferReady || r.Events[1].At != 2 {
		t.Fatalf("events recorded wrong: %+v", r.Events)
	}
	r.Reset()
	if len(r.Events) != 0 || cap(r.Events) < 2 {
		t.Fatalf("Reset should keep capacity: len=%d cap=%d", len(r.Events), cap(r.Events))
	}
}

func TestTee(t *testing.T) {
	if tr := Tee(nil, nil); tr != nil {
		t.Fatalf("Tee of nils should be nil, got %T", tr)
	}
	a := &Recorder{}
	if tr := Tee(nil, a); tr != Tracer(a) {
		t.Fatalf("Tee of one tracer should return it directly, got %T", tr)
	}
	b := &Recorder{}
	tr := Tee(a, nil, b)
	tr.Emit(Event{Kind: EvStepEnter})
	if len(a.Events) != 1 || len(b.Events) != 1 {
		t.Fatalf("fan-out failed: a=%d b=%d", len(a.Events), len(b.Events))
	}
}

// TestNoOpEmitZeroAlloc pins the tentpole cost contract: with no tracer
// attached, an emit site is a branch and nothing else.
func TestNoOpEmitZeroAlloc(t *testing.T) {
	ev := Event{Kind: EvLinkAcquired, At: 10, Dur: 4, Busy: 4, Link: 3, Transfer: 7, Bytes: 272}
	allocs := testing.AllocsPerRun(1000, func() {
		Emit(nil, ev)
	})
	if allocs != 0 {
		t.Fatalf("nil-tracer Emit allocates %v bytes/op, want 0", allocs)
	}
}

// Recording must not box events either: appending value structs to the
// recorder amortizes to well under one allocation per event.
func TestRecorderLowAlloc(t *testing.T) {
	r := &Recorder{Events: make([]Event, 0, 2000)}
	ev := Event{Kind: EvLinkAcquired, At: 10}
	allocs := testing.AllocsPerRun(1000, func() {
		if len(r.Events) == cap(r.Events) {
			r.Reset()
		}
		r.Emit(ev)
	})
	if allocs != 0 {
		t.Fatalf("pre-sized Recorder.Emit allocates %v/op, want 0", allocs)
	}
}

func TestMetricsLinkBinning(t *testing.T) {
	m := NewMetrics(10)
	// A fully-busy span covering bins [0,10) and [10,20) equally.
	m.Emit(Event{Kind: EvLinkAcquired, Link: 0, At: 5, Dur: 10, Busy: 10})
	// A half-rate span inside one bin.
	m.Emit(Event{Kind: EvLinkAcquired, Link: 2, At: 20, Dur: 8, Busy: 4})

	busy := m.LinkBusy()
	if len(busy) != 3 || busy[0] != 10 || busy[1] != 0 || busy[2] != 4 {
		t.Fatalf("LinkBusy = %v, want [10 0 4]", busy)
	}
	if len(m.linkBins) != 3 || m.linkBins[1] != nil {
		t.Fatalf("link bins = %v, want 3 links with link 1 empty", m.linkBins)
	}
	b0 := m.linkBins[0]
	if len(b0) != 2 || math.Abs(b0[0]-5) > 1e-9 || math.Abs(b0[1]-5) > 1e-9 {
		t.Fatalf("link 0 bins = %v, want [5 5]", b0)
	}
	b2 := m.linkBins[2]
	if len(b2) != 3 || math.Abs(b2[2]-4) > 1e-9 {
		t.Fatalf("link 2 bins = %v, want busy 4 in bin 2", b2)
	}

	var csv bytes.Buffer
	if err := m.WriteLinkCSV(&csv, []string{"a->b"}); err != nil {
		t.Fatal(err)
	}
	out := csv.String()
	if !strings.HasPrefix(out, "link,name,bin_start_cycles,bin_end_cycles,busy_cycles,utilization\n") {
		t.Fatalf("bad CSV header:\n%s", out)
	}
	if !strings.Contains(out, "0,a->b,0,10,5.0,0.5000") {
		t.Fatalf("missing expected bin row:\n%s", out)
	}
	if !strings.Contains(out, "2,link2,20,30,4.0,0.4000") {
		t.Fatalf("missing fallback-named row:\n%s", out)
	}
}

func TestMetricsCounters(t *testing.T) {
	m := NewMetrics(0)
	m.Emit(Event{Kind: EvStepEnter, Step: 1})
	m.Emit(Event{Kind: EvEngineQueue, Bytes: 3})
	m.Emit(Event{Kind: EvEngineQueue, Bytes: 9})
	m.Emit(Event{Kind: EvEngineQueue, Bytes: 2})
	m.Emit(Event{Kind: EvNIEntryActivated, Node: 2})
	m.Emit(Event{Kind: EvNIEntryActivated, Node: 2})
	m.Emit(Event{Kind: EvNIDepCleared, Node: 0})
	m.Emit(Event{Kind: EvNILockstep, Node: 1})
	want := SimReport{Events: 8, StepEnters: 1, EngineQueueMax: 9,
		NIEntriesIssued: 2, NIDepsCleared: 1, NILockstepNOPs: 1}
	if got := SimReportFrom(m); *got != want {
		t.Fatalf("SimReportFrom = %+v, want %+v", *got, want)
	}
}

func TestStepLinkUtilization(t *testing.T) {
	events := []Event{
		{Kind: EvLinkAcquired, Link: 0, Step: 1},
		{Kind: EvLinkAcquired, Link: 0, Step: 1}, // duplicate: same link, same step
		{Kind: EvLinkAcquired, Link: 1, Step: 2},
		{Kind: EvLinkAcquired, Link: 2, Step: 2},
		{Kind: EvTransferReady, Step: 2}, // not a link event
	}
	m := NewMetrics(0)
	for _, ev := range events {
		m.Emit(ev)
	}
	u := m.StepLinkUtilization(4)
	if len(u) != 3 {
		t.Fatalf("len = %d, want 3", len(u))
	}
	if u[1] != 0.25 || u[2] != 0.5 {
		t.Fatalf("utilization = %v, want [_ 0.25 0.5]", u)
	}
	if NewMetrics(0).StepLinkUtilization(4) != nil || m.StepLinkUtilization(0) != nil {
		t.Fatalf("empty inputs should yield nil")
	}
}

func TestKindString(t *testing.T) {
	for k := EvTransferReady; k <= EvNILockstep; k++ {
		if k.String() == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if Kind(200).String() != "unknown" {
		t.Fatalf("out-of-range kind should be unknown")
	}
}

// TestWriteChromeTraceJSON checks the export is valid Chrome-trace JSON
// with the documented track layout.
func TestWriteChromeTraceJSON(t *testing.T) {
	meta := TraceMeta{Title: "test", LinkNames: []string{"n0->n1", "n1->n0"}, Nodes: 2}
	events := []Event{
		{Kind: EvTransferInjected, At: 0, Transfer: 0, Node: 0, Flow: 0, Step: 1, Bytes: 256},
		{Kind: EvLinkAcquired, At: 10, Dur: 16, Busy: 16, Link: 0, Transfer: 0, Step: 1, Bytes: 272},
		{Kind: EvLinkAcquired, At: 5, Dur: 20, Busy: 10, Link: 1, Transfer: 1, Step: 1, Bytes: 272},
		{Kind: EvTransferDelivered, At: 30, Transfer: 0, Node: 1},
		{Kind: EvEngineQueue, At: 12, Bytes: 5},
		{Kind: EvNIEntryActivated, At: 1, Node: 0, Flow: 0, Step: 1},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, meta, events); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			Ts   float64         `json:"ts"`
			Dur  float64         `json:"dur"`
			Pid  int             `json:"pid"`
			Tid  int             `json:"tid"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q, want ns", doc.DisplayTimeUnit)
	}
	var spans, instants, counters, metas int
	lastTs := -1.0
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			spans++
			if ev.Dur <= 0 {
				t.Fatalf("span %q has non-positive dur %v", ev.Name, ev.Dur)
			}
		case "i":
			instants++
		case "C":
			counters++
		case "M":
			metas++
			continue // metadata has no ordering requirement
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
		if ev.Ts < lastTs && ev.Pid != pidNIMachine {
			t.Fatalf("engine events out of ts order: %v after %v", ev.Ts, lastTs)
		}
		if ev.Pid != pidNIMachine {
			lastTs = ev.Ts
		}
	}
	if spans != 2 {
		t.Fatalf("got %d spans, want 2 (one per EvLinkAcquired)", spans)
	}
	if instants < 2 || counters != 1 || metas == 0 {
		t.Fatalf("instants=%d counters=%d metas=%d", instants, counters, metas)
	}
}
