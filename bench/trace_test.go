package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"multitree/internal/obs"
)

func TestLayerSelfTimesOnSyntheticTree(t *testing.T) {
	ms := time.Millisecond
	// op [0,100): build [5,60) holds grow [10,40) and lower [40,55);
	// engine [60,95). A second op [100,130) is one engine span.
	spans := []span{
		{name: spanOp, start: 0, end: 100 * ms, parent: -1},
		{name: spanBuild, start: 5 * ms, end: 60 * ms, parent: 0},
		{name: spanGrow, start: 10 * ms, end: 40 * ms, parent: 1},
		{name: spanLower, start: 40 * ms, end: 55 * ms, parent: 1},
		{name: spanFluid, start: 60 * ms, end: 95 * ms, parent: 0},
		{name: spanOp, start: 100 * ms, end: 130 * ms, parent: -1, op: 1},
		{name: spanFluid, start: 100 * ms, end: 130 * ms, parent: 5, op: 1},
	}
	got := layerTimes(spans)
	want := map[string]layerTime{
		spanOp:    {busy: 130 * ms, self: 10 * ms},
		spanBuild: {busy: 55 * ms, self: 10 * ms},
		spanGrow:  {busy: 30 * ms, self: 30 * ms},
		spanLower: {busy: 15 * ms, self: 15 * ms},
		spanFluid: {busy: 65 * ms, self: 65 * ms},
	}
	var selfSum time.Duration
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
		selfSum += got[name].self
	}
	if len(got) != len(want) {
		t.Errorf("got %d layers, want %d", len(got), len(want))
	}
	if selfSum != got[spanOp].busy {
		t.Errorf("self times sum to %v, want the ops' wall %v", selfSum, got[spanOp].busy)
	}
}

func TestTracerNestsObserverPhases(t *testing.T) {
	tr := newTracer()
	o := tr.observer()
	tr.beginOp(1)
	tr.begin(spanBuild)
	o.PhaseStart(obs.PhaseCacheLookup)
	o.PhaseEnd(obs.PhaseCacheLookup, obs.PlanCounters{CacheMisses: 1})
	o.PhaseStart(obs.PhaseTreeGrowth)
	o.PhaseEnd(obs.PhaseTreeGrowth, obs.PlanCounters{Searches: 4, SearchMisses: 1})
	o.PhaseStart(obs.PhaseCacheLookup)
	o.PhaseEnd(obs.PhaseCacheLookup, obs.PlanCounters{CacheBytes: 1000})
	tr.end(spanBuild)
	tr.end(spanOp)
	if tr.err != nil {
		t.Fatal(tr.err)
	}
	var names []string
	for _, s := range tr.spans {
		names = append(names, s.name)
		if s.name != spanOp && s.parent < 0 {
			t.Errorf("%s has no parent", s.name)
		}
	}
	wantNames := []string{spanOp, spanBuild, spanLookup, spanGrow, spanStore}
	if len(names) != len(wantNames) {
		t.Fatalf("spans %v, want %v", names, wantNames)
	}
	for i := range names {
		if names[i] != wantNames[i] {
			t.Fatalf("spans %v, want %v", names, wantNames)
		}
	}
	if tr.counts["plancache.misses"] != 1 || tr.counts["plancache.bytes_written"] != 1000 || tr.counts["core.grow.searches"] != 4 {
		t.Errorf("counts %v", tr.counts)
	}

	tr.begin(spanFluid)
	tr.end(spanPacket)
	if tr.err == nil {
		t.Error("unbalanced span end not reported")
	}
}

func TestNilTracerIsUntraced(t *testing.T) {
	var tr *tracer
	tr.beginOp(1)
	tr.begin(spanBuild)
	tr.add("x", 1)
	tr.end(spanBuild)
	if tr.observer() != nil {
		t.Error("nil tracer returns a non-nil observer")
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	spans := []span{{name: spanOp, end: time.Millisecond, parent: -1}}
	if err := writeChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 1 || doc.TraceEvents[0].Ph != "X" || doc.TraceEvents[0].Dur != 1000 {
		t.Errorf("events %+v", doc.TraceEvents)
	}
}
