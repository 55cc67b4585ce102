package network_test

// The fluid engine's closed-form rates, checked against progressive
// filling on schedules built by the registry's planners.

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"multitree/internal/algorithms"
	"multitree/internal/collective"
	"multitree/internal/faults"
	"multitree/internal/network"
	"multitree/internal/topology"
	"multitree/internal/topospec"
)

// diffFullFill simulates s twice, with the closed form on and with every
// rate recompute forced through progressive filling, and fails unless the
// two runs agree byte for byte: the same Result (or the same error) and
// the same traced event stream. It returns how many recomputes the
// closed form served and the runs' common error, which callers that
// expect the schedule to complete must check.
func diffFullFill(t *testing.T, s *collective.Schedule, cfg network.Config) (int, error) {
	t.Helper()
	full, fullEvents, _, fullErr := network.RunFluidTraced(s, cfg, true)
	fast, fastEvents, solo, fastErr := network.RunFluidTraced(s, cfg, false)
	if fmt.Sprint(fullErr) != fmt.Sprint(fastErr) {
		t.Fatalf("errors diverge: full fill %v, closed form %v", fullErr, fastErr)
	}
	if !reflect.DeepEqual(full, fast) {
		t.Fatal("Results diverge between full fill and closed form")
	}
	if !reflect.DeepEqual(fullEvents, fastEvents) {
		t.Fatalf("event streams diverge (%d vs %d events)", len(fullEvents), len(fastEvents))
	}
	return solo, fastErr
}

// TestFluidClosedFormMatchesFullFill pins the closed-form rates the
// strong way: on the uniform torus, and on one whose link 0-1 runs at
// half bandwidth, every schedule must simulate byte-identically with the
// closed form and with progressive filling alone, and must complete. On
// the uniform torus the closed form must fire for ring, 2d-ring and
// multitree, or the comparison proves nothing; on the degraded one it
// must never fire.
func TestFluidClosedFormMatchesFullFill(t *testing.T) {
	topo := torus4x4()
	half, err := faults.Apply(topo, mustPlan(t, "link:0-1:bw=0.5"))
	if err != nil {
		t.Fatal(err)
	}
	const elems = (256 << 10) / collective.WordSize
	for _, c := range []struct {
		fabric string // subtest name prefix
		topo   *topology.Topology
		algs   []string
	}{
		{"", topo, []string{"ring", "2d-ring", "dbtree", "multitree", "multitree-msg"}},
		{"halfBW/", half.Topo, []string{"ring", "dbtree", "multitree", "multitree-msg"}},
	} {
		for _, alg := range c.algs {
			s, err := algorithms.Build(c.topo, alg, elems, algorithms.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, lockstep := range []bool{true, false} {
				name := c.fabric + alg + "/lockstep"
				if !lockstep {
					name = c.fabric + alg + "/freeRunning"
				}
				t.Run(name, func(t *testing.T) {
					cfg := network.DefaultConfig()
					if strings.HasSuffix(alg, algorithms.MsgSuffix) {
						cfg = network.MessageConfig()
					}
					cfg.Lockstep = lockstep
					solo, err := diffFullFill(t, s, cfg)
					if err != nil {
						t.Fatal(err)
					}
					switch {
					case c.topo == half.Topo && solo != 0:
						t.Errorf("closed form served %d recomputes on a fabric with a half-bandwidth link", solo)
					case c.topo == topo && alg != "dbtree" && solo == 0:
						t.Errorf("closed form never fired on %s; the comparison is vacuous", alg)
					}
				})
			}
		}
	}
}

// fuzzFabrics are the small fabrics FuzzFluidRates draws from.
var fuzzFabrics = []string{
	"torus-4x4", "mesh-3x3", "mesh-2x4", "torus-3x5", "torus3d-2x2x2", "fattree-16", "bigraph-8",
}

// FuzzFluidRates: on a fuzzer-chosen small fabric (optionally with one
// link at half bandwidth), registry algorithm, gradient size and
// Lockstep/MessageBased flags, the closed form must agree
// with progressive filling byte for byte; a run that fails (a schedule
// the engine stalls on) must fail the same way on both sides. Input bytes: fabric, degraded
// link (0 for none, else link index+1), algorithm, flags (bit 0
// Lockstep, bit 2 MessageBased; bit 1 is unused), then a
// little-endian uint16 element count. Seeds live in
// testdata/fuzz/FuzzFluidRates.
func FuzzFluidRates(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		topo, err := topospec.Parse(fuzzFabrics[int(data[0])%len(fuzzFabrics)])
		if err != nil {
			t.Fatal(err)
		}
		if data[1] != 0 {
			l := topo.Links()[int(data[1]-1)%len(topo.Links())]
			d, err := faults.Apply(topo, &faults.Plan{Links: []faults.LinkFault{{A: l.Src, B: l.Dst, BWScale: 0.5}}})
			if err != nil {
				t.Fatal(err)
			}
			topo = d.Topo
		}
		specs := algorithms.Supporting(topo)
		spec := specs[int(data[2])%len(specs)]
		flags := data[3]
		elems := 1 + int(binary.LittleEndian.Uint16(data[4:]))
		s, err := algorithms.Build(topo, spec.Name, elems, algorithms.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := network.DefaultConfig()
		cfg.Lockstep = flags&1 != 0
		cfg.MessageBased = flags&4 != 0
		diffFullFill(t, s, cfg) // a matching error is accepted here
	})
}
