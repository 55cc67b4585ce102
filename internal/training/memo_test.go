package training_test

import (
	"errors"
	"testing"

	"multitree/internal/collective"
	"multitree/internal/model"
	"multitree/internal/network"
	"multitree/internal/topology"
	"multitree/internal/training"
)

// counting wraps cfg's Build and Engine seams and records how often each
// gradient size is built and simulated.
func counting(cfg *training.Config) (builds, runs map[int]int) {
	builds, runs = map[int]int{}, map[int]int{}
	build := cfg.Build
	cfg.Build = func(tp *topology.Topology, elems int) (*collective.Schedule, error) {
		builds[elems]++
		return build(tp, elems)
	}
	cfg.Engine = func(s *collective.Schedule, c network.Config) (*network.Result, error) {
		runs[s.Elems]++
		return network.SimulateFluid(s, c)
	}
	return builds, runs
}

// overlappedSizes lists the all-reduce sizes Overlapped issues for net, in
// issue order: one per layer with parameters, last layer first.
func overlappedSizes(net model.Network) []int {
	var out []int
	for i := len(net.Layers) - 1; i >= 0; i-- {
		if p := net.Layers[i].Params(); p > 0 {
			out = append(out, int(p))
		}
	}
	return out
}

// checkOncePerSize: every size in want was built and simulated exactly
// once, and nothing else was.
func checkOncePerSize(t *testing.T, label string, want []int, builds, runs map[int]int) {
	t.Helper()
	distinct := map[int]bool{}
	for _, e := range want {
		distinct[e] = true
	}
	if len(distinct) == len(want) {
		t.Fatalf("%s: no repeated size among %d all-reduces; the test needs one", label, len(want))
	}
	if len(builds) != len(distinct) || len(runs) != len(distinct) {
		t.Errorf("%s: %d sizes built, %d simulated, want %d distinct", label, len(builds), len(runs), len(distinct))
	}
	for e := range distinct {
		if builds[e] != 1 || runs[e] != 1 {
			t.Errorf("%s: size %d built %d times, simulated %d times, want once", label, e, builds[e], runs[e])
		}
	}
}

// TestOverlappedSimulatesEachSizeOnce: layer-wise all-reduce builds and
// simulates each distinct layer size once per call.
func TestOverlappedSimulatesEachSizeOnce(t *testing.T) {
	net := model.ResNet50()
	cfg := config(t, "ring")
	builds, runs := counting(&cfg)
	if _, err := cfg.Overlapped(net); err != nil {
		t.Fatal(err)
	}
	checkOncePerSize(t, "overlapped", overlappedSizes(net), builds, runs)
}

// TestProfileSimulatesEachSizeOnce: the per-layer profile builds once per
// distinct non-zero layer size, and layers of one size report one time.
func TestProfileSimulatesEachSizeOnce(t *testing.T) {
	net := model.ResNet50()
	cfg := config(t, "ring")
	builds, runs := counting(&cfg)
	rows, err := cfg.Profile(net)
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int
	for _, l := range net.Layers {
		if l.Params() > 0 {
			sizes = append(sizes, int(l.Params()))
		}
	}
	checkOncePerSize(t, "profile", sizes, builds, runs)
	cycles := map[int64]int64{}
	for _, r := range rows {
		if c, ok := cycles[r.Params]; ok && c != int64(r.AllReduceCycles) {
			t.Errorf("layers of %d params report %d and %d cycles", r.Params, c, r.AllReduceCycles)
		}
		cycles[r.Params] = int64(r.AllReduceCycles)
	}
}

// TestMemoIsPerCall: nothing survives a call, so two back-to-back calls
// on one Config each build every size again.
func TestMemoIsPerCall(t *testing.T) {
	net := model.Transformer()
	cfg := config(t, "ring")
	builds, runs := counting(&cfg)
	for call := 1; call <= 2; call++ {
		if _, err := cfg.Overlapped(net); err != nil {
			t.Fatal(err)
		}
		for e, n := range builds {
			if n != call || runs[e] != call {
				t.Errorf("after call %d: size %d built %d times, simulated %d times", call, e, n, runs[e])
			}
		}
	}
}

// TestMemoReturnsBuildError: a Build error on a size's first occurrence
// reaches the caller of every entry point.
func TestMemoReturnsBuildError(t *testing.T) {
	net := model.ResNet50()
	bad := overlappedSizes(net)[0] // the first all-reduce Overlapped issues
	errBad := errors.New("no schedule for this size")
	cfg := config(t, "ring")
	build := cfg.Build
	cfg.Build = func(tp *topology.Topology, elems int) (*collective.Schedule, error) {
		if elems == bad {
			return nil, errBad
		}
		return build(tp, elems)
	}
	if _, err := cfg.Overlapped(net); !errors.Is(err, errBad) {
		t.Errorf("Overlapped returned %v, want %v", err, errBad)
	}
	if _, err := cfg.Profile(net); !errors.Is(err, errBad) {
		t.Errorf("Profile returned %v, want %v", err, errBad)
	}
	cfg.Build = func(*topology.Topology, int) (*collective.Schedule, error) { return nil, errBad }
	if _, err := cfg.NonOverlapped(net); !errors.Is(err, errBad) {
		t.Errorf("NonOverlapped returned %v, want %v", err, errBad)
	}
}
