package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
)

// RunReportSchema is the versioned identifier of the structured run
// report. Decoders reject unknown schemas and unknown fields, so a
// report either round-trips exactly or fails loudly — the property the
// CI smoke step checks. Changes bump the version, and DecodeRunReport
// accepts only the current one.
const RunReportSchema = "multitree-runreport/v5"

// RunReport is the machine-readable record of one CLI run: environment,
// what was planned and simulated, where the wall time went, and the
// planner phase breakdown. The three cmd/ tools write one behind
// -report <file>; the survey's point (PAPERS.md) is that credible
// simulators report reproducible run metadata, not bare numbers.
type RunReport struct {
	// Schema is always RunReportSchema.
	Schema string `json:"schema"`

	// Tool is the producing command ("allreduce-bench", ...); Mode its
	// operating mode ("single", "fig9", "schedule", ...).
	Tool string `json:"tool"`
	Mode string `json:"mode,omitempty"`

	// StartedAt is the run's start time in RFC3339 format.
	StartedAt string `json:"started_at,omitempty"`

	Env EnvInfo `json:"env"`

	Topology *TopologyInfo `json:"topology,omitempty"`

	// Algorithm/DataBytes/Engine describe the single-run configuration;
	// sweeps leave them empty and carry per-point data in Points.
	Algorithm string `json:"algorithm,omitempty"`
	DataBytes int64  `json:"data_bytes,omitempty"`
	Engine    string `json:"engine,omitempty"`

	// Options records free-form knobs that shaped the run (fault specs,
	// worker counts, payload overrides).
	Options map[string]string `json:"options,omitempty"`

	// Planner is the phase breakdown collected by a PlanProfile.
	Planner *PlanReport `json:"planner,omitempty"`

	// PlanCache summarizes the on-disk plan cache's activity, when one
	// was attached (-plan-cache).
	PlanCache *PlanCacheReport `json:"plan_cache,omitempty"`

	// Sim aggregates engine-side counters for the run.
	Sim *SimReport `json:"sim,omitempty"`

	// Wall splits the run's host wall-clock time across the pipeline.
	Wall *WallSplit `json:"wall,omitempty"`

	// Points carries per-point sweep results (Fig. 9 mode).
	Points []ReportPoint `json:"points,omitempty"`
}

// EnvInfo captures the execution environment.
type EnvInfo struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

// CaptureEnv snapshots the current process environment.
func CaptureEnv() EnvInfo {
	return EnvInfo{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}

// TopologyInfo identifies the fabric a run planned or simulated.
type TopologyInfo struct {
	Name  string `json:"name"`
	Nodes int    `json:"nodes"`
	Links int    `json:"links"`
	// Fingerprint is the sha256 structure hash of the schedule IR
	// (collective.TopologyFingerprint), when a schedule was built.
	Fingerprint string `json:"fingerprint,omitempty"`
}

// PlanReport is the serialized form of a PlanProfile.
type PlanReport struct {
	TotalNanos int64         `json:"total_ns"`
	Phases     []PhaseReport `json:"phases"`
}

// PhaseReport is one planner phase's aggregate: wall time, its share of
// the planner total, and the counters meaningful for the phase (zero
// counters are omitted).
type PhaseReport struct {
	Phase     string  `json:"phase"`
	Runs      int64   `json:"runs"`
	WallNanos int64   `json:"wall_ns"`
	Share     float64 `json:"share"`
	PlanCounters
}

// PlanCacheReport records one run's traffic against the content-addressed
// plan cache: probe outcomes, IR bytes moved, evictions performed, and —
// for single-schedule runs — the cache key probed.
type PlanCacheReport struct {
	Dir          string `json:"dir,omitempty"`
	Key          string `json:"key,omitempty"`
	Hits         int64  `json:"hits"`
	Misses       int64  `json:"misses"`
	BytesRead    int64  `json:"bytes_read,omitempty"`
	BytesWritten int64  `json:"bytes_written,omitempty"`
	Evictions    int64  `json:"evictions,omitempty"`

	// SummaryValidated/FullValidated split the hits by how the loaded
	// entry was validated: by its O(1) validation summary + content hash,
	// or by the full ValidateStrict pass (-verify-plan, or an entry
	// predating validation summaries).
	SummaryValidated int64 `json:"summary_validated,omitempty"`
	FullValidated    int64 `json:"full_validated,omitempty"`

	// MemHits/MemMisses/MemEvictions/MemBytes/MemEntries describe the
	// in-process decoded-plan LRU (-plan-mem-cache-mb) stacked above the
	// on-disk cache: a memory hit skips disk and decode entirely, so it
	// does not count in Hits/BytesRead.
	MemHits      int64 `json:"mem_hits,omitempty"`
	MemMisses    int64 `json:"mem_misses,omitempty"`
	MemEvictions int64 `json:"mem_evictions,omitempty"`
	MemBytes     int64 `json:"mem_bytes,omitempty"`
	MemEntries   int64 `json:"mem_entries,omitempty"`
}

// SimReport aggregates engine-side observability for the run: the event
// stream folded by a Metrics collector plus process allocation totals.
type SimReport struct {
	Engine string `json:"engine,omitempty"`

	// Events is the number of traced events the collector folded, of
	// every kind: link spans, transfer and step events, NI events and
	// the EvEngineQueue sample the discrete-event core emits after each
	// event it executes. EngineQueueMax is the high-water mark of the
	// discrete-event queue's pending events.
	Events         int64 `json:"events"`
	StepEnters     int64 `json:"step_enters,omitempty"`
	EngineQueueMax int64 `json:"engine_queue_max,omitempty"`

	// LinkBusyCycles sums busy-equivalent cycles over all links;
	// LinksActive counts links that carried traffic.
	LinkBusyCycles float64 `json:"link_busy_cycles,omitempty"`
	LinksActive    int     `json:"links_active,omitempty"`

	NIEntriesIssued int64 `json:"ni_entries_issued,omitempty"`
	NIDepsCleared   int64 `json:"ni_deps_cleared,omitempty"`
	NILockstepNOPs  int64 `json:"ni_lockstep_nops,omitempty"`

	Cycles        uint64  `json:"cycles,omitempty"`
	BandwidthGBps float64 `json:"bandwidth_gbps,omitempty"`

	// AllocBytes is the process's cumulative heap allocation growth over
	// the run (runtime.MemStats.TotalAlloc delta).
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
}

// WallSplit attributes the run's host wall time to pipeline stages:
// planning (schedule construction), compilation (NI tables / IR import),
// and simulation.
type WallSplit struct {
	PlanNanos     int64 `json:"plan_ns,omitempty"`
	CompileNanos  int64 `json:"compile_ns,omitempty"`
	SimulateNanos int64 `json:"simulate_ns,omitempty"`
	TotalNanos    int64 `json:"total_ns"`
}

// ReportPoint mirrors the per-point sweep result of allreduce-bench
// -json (experiments.AllReducePoint), so sweep reports embed the same
// shape the CSV/JSON outputs carry: wall_ns is the full point cost,
// plan_ns the schedule-construction share of it.
type ReportPoint struct {
	Topology      string  `json:"topology"`
	Algorithm     string  `json:"algorithm"`
	DataBytes     int64   `json:"data_bytes"`
	Cycles        uint64  `json:"cycles"`
	BandwidthGBps float64 `json:"bandwidth_gbps"`
	WallNanos     int64   `json:"wall_ns,omitempty"`
	PlanNanos     int64   `json:"plan_ns,omitempty"`
}

// NewRunReport returns a report stamped with the schema and environment.
func NewRunReport(tool, mode string) *RunReport {
	return &RunReport{Schema: RunReportSchema, Tool: tool, Mode: mode, Env: CaptureEnv()}
}

// SimReportFrom aggregates a Metrics collector into the report shape:
// the one place the sim counters are listed. Do not call concurrently
// with Emit; Metrics is not synchronized (the emit path stays
// allocation- and lock-free).
func SimReportFrom(m *Metrics) *SimReport {
	if m == nil {
		return nil
	}
	s := &SimReport{
		Events:          m.events,
		StepEnters:      m.stepEnters,
		EngineQueueMax:  m.queueMax,
		NIEntriesIssued: m.niIssued,
		NIDepsCleared:   m.niCleared,
		NILockstepNOPs:  m.niNOPs,
	}
	for _, b := range m.linkBusy {
		s.LinkBusyCycles += b
		if b > 0 {
			s.LinksActive++
		}
	}
	return s
}

// Write emits the report as indented JSON.
func (r *RunReport) Write(w io.Writer) error {
	if r.Schema == "" {
		r.Schema = RunReportSchema
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(r)
}

// DecodeRunReport strictly decodes a report: unknown fields, a missing
// or foreign schema string, and trailing garbage are all errors. This is
// the validation CI runs on every emitted report.
func DecodeRunReport(r io.Reader) (*RunReport, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var rep RunReport
	if err := dec.Decode(&rep); err != nil {
		return nil, fmt.Errorf("obs: invalid run report: %w", err)
	}
	if rep.Schema != RunReportSchema {
		return nil, fmt.Errorf("obs: run report schema %q, want %q", rep.Schema, RunReportSchema)
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		return nil, fmt.Errorf("obs: trailing data after run report")
	}
	return &rep, nil
}
