package network

import (
	"testing"

	"multitree/internal/collective"
	"multitree/internal/obs"
)

// Hooks for the external tests, which build schedules with the planners
// that import this package.

// RunWithRegisterChecks is runWithRegisterChecks for the external tests.
func RunWithRegisterChecks(t *testing.T, s *collective.Schedule, cfg Config) bool {
	return runWithRegisterChecks(t, s, cfg)
}

// StepPrioritySchedule is stepPrioritySchedule for the external tests.
func StepPrioritySchedule(t *testing.T) *collective.Schedule { return stepPrioritySchedule(t) }

// GateChecks reports how many step-gate tests the last Run of fs made.
func GateChecks(fs *FluidSim) int { return fs.st.fe.ls.gateChecks }

// PacketGateChecks reports how many step-gate tests the last Run of ps
// made.
func PacketGateChecks(ps *PacketSim) int { return ps.ps.fe.ls.gateChecks }

// RunFluidTraced runs s once on a new FluidSim, recording its events.
// fullFill sends every rate recompute through progressive filling. It
// also reports how many recomputes the closed form served.
func RunFluidTraced(s *collective.Schedule, cfg Config, fullFill bool) (*Result, []obs.Event, int, error) {
	rec := &obs.Recorder{}
	cfg.Tracer = rec
	fs, err := NewFluidSim(s, cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	fs.st.noIncremental = fullFill
	res, err := fs.Run()
	return res, rec.Events, fs.st.soloFills, err
}
