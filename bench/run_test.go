package main

import (
	"math/rand/v2"
	"testing"
)

func TestTimedPassesFixesTheOpCount(t *testing.T) {
	for _, tc := range []struct {
		seconds, passSeconds float64
		traced               bool
		want                 int
	}{
		{24, 5.6, false, 4},  // 4.3 passes
		{24, 4.8, false, 5},  // 5 passes
		{24, 1.6, false, 15}, // 15 passes
		{24, 20, false, 1},
		{24, 20, true, 2}, // one untraced and one traced pass
		{24, 1.6, true, 16},
		{0, 5.6, false, 1}, // --seconds 0: one pass
		{0, 5.6, true, 2},
	} {
		if got := timedPasses(tc.seconds, tc.passSeconds, tc.traced); got != tc.want {
			t.Errorf("timedPasses(%v, %v, traced=%v) = %d, want %d", tc.seconds, tc.passSeconds, tc.traced, got, tc.want)
		}
	}
}

// TestRequestOrderFixesTheMix checks that every seed's plan-serve order
// has the same mix: with a tier holding the last plan served, k cold
// builds, b−k disk loads and n−b memory hits.
func TestRequestOrderFixesTheMix(t *testing.T) {
	const n, b, k = planServeRequests, planServeBlocks, 4
	for seed := uint64(1); seed <= 50; seed++ {
		order := requestOrder(rand.New(rand.NewPCG(seed, 1)), n, b, k)
		if len(order) != n {
			t.Fatalf("seed %d: %d requests, want %d", seed, len(order), n)
		}
		seen := map[int]bool{}
		cold, disk, mem := 0, 0, 0
		for i, key := range order {
			switch {
			case !seen[key]:
				cold++
			case order[i-1] == key:
				mem++
			default:
				disk++
			}
			seen[key] = true
		}
		if cold != k || disk != b-k || mem != n-b {
			t.Errorf("seed %d: %d cold, %d disk, %d memory, want %d, %d, %d", seed, cold, disk, mem, k, b-k, n-b)
		}
	}
}
