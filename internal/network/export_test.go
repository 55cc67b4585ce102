package network

import (
	"testing"

	"multitree/internal/collective"
)

// Hooks for the external tests, which build schedules with the planners
// that import this package.

// RunWithRegisterChecks is runWithRegisterChecks for the external tests.
func RunWithRegisterChecks(t *testing.T, s *collective.Schedule, cfg Config) bool {
	return runWithRegisterChecks(t, s, cfg)
}

// GateChecks reports how many step-gate tests the last Run of fs made.
func GateChecks(fs *FluidSim) int { return fs.st.ls.gateChecks }
