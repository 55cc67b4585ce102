package obs

import (
	"fmt"
	"io"
)

// Metrics is a streaming collector implementing Tracer: it folds the event
// stream into per-link time-binned utilization histograms, per-step link
// sets, and run totals (events, step entries, peak queue depth, NI table
// activity), without retaining the events themselves. Every export
// except the Chrome trace reads it, the totals through SimReportFrom;
// Tee it with a Recorder only when a Chrome trace is wanted, since
// WriteChromeTrace needs the raw stream.
type Metrics struct {
	// BinCycles is the utilization histogram bin width in cycles; 0
	// collects per-link totals only.
	BinCycles float64

	linkBusy []float64   // total busy-equivalent cycles per link
	linkBins [][]float64 // busy-equivalent cycles per (link, bin)
	lastAt   float64     // latest span end seen, bounds the histogram

	stepLinks [][]bool // per step: the links that carried its traffic

	niIssued  int64 // schedule-table entries issued
	niCleared int64 // dependencies cleared by received messages
	niNOPs    int64 // lockstep down-counter NOP elapses

	stepEnters int64
	queueMax   int64 // peak pending-event count in the discrete-event core
	events     int64
}

// NewMetrics returns a collector with the given utilization bin width in
// cycles (0 keeps totals only).
func NewMetrics(binCycles float64) *Metrics {
	return &Metrics{BinCycles: binCycles}
}

// Emit folds one event into the collector.
func (m *Metrics) Emit(ev Event) {
	m.events++
	switch ev.Kind {
	case EvLinkAcquired:
		m.addSpan(ev.Link, ev.At, ev.Dur, ev.Busy)
		if ev.Step > 0 {
			m.stepLinks = grow(m.stepLinks, int(ev.Step))
			m.stepLinks[ev.Step] = grow(m.stepLinks[ev.Step], int(ev.Link))
			m.stepLinks[ev.Step][ev.Link] = true
		}
	case EvStepEnter:
		m.stepEnters++
	case EvEngineQueue:
		if ev.Bytes > m.queueMax {
			m.queueMax = ev.Bytes
		}
	case EvNIEntryActivated:
		m.niIssued++
	case EvNIDepCleared:
		m.niCleared++
	case EvNILockstep:
		m.niNOPs++
	}
}

// grow extends s with zero values until idx is a valid index.
func grow[T any](s []T, idx int) []T {
	var zero T
	for len(s) <= idx {
		s = append(s, zero)
	}
	return s
}

// addSpan distributes busy-equivalent cycles uniformly over [at, at+dur)
// into the link's histogram bins.
func (m *Metrics) addSpan(link int32, at, dur, busy float64) {
	l := int(link)
	m.linkBusy = grow(m.linkBusy, l)
	m.linkBins = grow(m.linkBins, l)
	m.linkBusy[l] += busy
	if end := at + dur; end > m.lastAt {
		m.lastAt = end
	}
	if m.BinCycles <= 0 {
		return
	}
	if dur <= 0 {
		b := int(at / m.BinCycles)
		m.linkBins[l] = grow(m.linkBins[l], b)
		m.linkBins[l][b] += busy
		return
	}
	density := busy / dur
	end := at + dur
	for b := int(at / m.BinCycles); float64(b)*m.BinCycles < end; b++ {
		lo := max(at, float64(b)*m.BinCycles)
		hi := min(end, float64(b+1)*m.BinCycles)
		m.linkBins[l] = grow(m.linkBins[l], b)
		m.linkBins[l][b] += (hi - lo) * density
	}
}

// Events returns the number of events folded in.
func (m *Metrics) Events() int64 { return m.events }

// LinkBusy returns the total busy-equivalent cycles per link (indexed by
// link id; links beyond the highest seen are absent).
func (m *Metrics) LinkBusy() []float64 { return m.linkBusy }

// StepLinkUtilization reports, per algorithmic step, the fraction of the
// topology's totalLinks directed links that carried traffic of that step:
// the dynamic counterpart of collective.StepUtilization, folded from
// EvLinkAcquired events as they arrived. Index 0 is unused (steps are
// 1-based); nil when totalLinks is 0 or no link event carried a step.
func (m *Metrics) StepLinkUtilization(totalLinks int) []float64 {
	if totalLinks == 0 || len(m.stepLinks) == 0 {
		return nil
	}
	out := make([]float64, len(m.stepLinks))
	for step := 1; step < len(m.stepLinks); step++ {
		used := 0
		for _, u := range m.stepLinks[step] {
			if u {
				used++
			}
		}
		out[step] = float64(used) / float64(totalLinks)
	}
	return out
}

// WriteLinkCSV writes the per-link utilization histogram as CSV, one row
// per (link, bin): link id, optional name, bin bounds in cycles, the
// busy-equivalent cycles inside the bin, and the bin's utilization
// (busy/width, 1.0 = saturated). With binning off it writes one totals row
// per link instead, with utilization relative to the whole run.
func (m *Metrics) WriteLinkCSV(w io.Writer, names []string) error {
	name := func(l int) string {
		if l < len(names) {
			return names[l]
		}
		return fmt.Sprintf("link%d", l)
	}
	if _, err := fmt.Fprintln(w, "link,name,bin_start_cycles,bin_end_cycles,busy_cycles,utilization"); err != nil {
		return err
	}
	for l := range m.linkBusy {
		if m.linkBusy[l] == 0 {
			continue
		}
		if m.BinCycles <= 0 {
			util := 0.0
			if m.lastAt > 0 {
				util = m.linkBusy[l] / m.lastAt
			}
			if _, err := fmt.Fprintf(w, "%d,%s,0,%.0f,%.1f,%.4f\n",
				l, name(l), m.lastAt, m.linkBusy[l], util); err != nil {
				return err
			}
			continue
		}
		for b, busy := range m.linkBins[l] {
			if busy == 0 {
				continue
			}
			lo := float64(b) * m.BinCycles
			if _, err := fmt.Fprintf(w, "%d,%s,%.0f,%.0f,%.1f,%.4f\n",
				l, name(l), lo, lo+m.BinCycles, busy, busy/m.BinCycles); err != nil {
				return err
			}
		}
	}
	return nil
}
