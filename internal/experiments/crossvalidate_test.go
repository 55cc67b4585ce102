package experiments

// Cross-validation of the schedule IR: for every algorithm the registry
// features on each of the paper's four evaluation fabrics, the schedule
// must survive export → import with its simulated finish time (both
// engines), all-reduce semantics, topology fingerprint, and byte-exact
// file form intact. This is the end-to-end guarantee that the IR file is
// a faithful interchange format, not a lossy dump.

import (
	"bytes"
	"testing"

	"multitree/internal/algorithms"
	"multitree/internal/collective"
	"multitree/internal/network"
	"multitree/internal/topospec"
)

func TestScheduleIRCrossValidation(t *testing.T) {
	const dataBytes = 64 << 10
	const elems = dataBytes / collective.WordSize
	for _, spec := range []string{"torus-4x4", "mesh-4x4", "fattree-16", "bigraph-32"} {
		topo, err := topospec.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		covered := 0
		for _, alg := range algorithms.Supporting(topo) {
			covered++
			t.Run(spec+"/"+alg.Name, func(t *testing.T) {
				orig, err := algorithms.Build(topo, alg.Name, elems, algorithms.Options{})
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := collective.Export(&buf, orig); err != nil {
					t.Fatal(err)
				}
				file := buf.Bytes()
				imp, err := collective.Import(bytes.NewReader(file))
				if err != nil {
					t.Fatal(err)
				}
				if got, want := collective.TopologyFingerprint(imp.Topo), collective.TopologyFingerprint(topo); got != want {
					t.Fatalf("fingerprint %s, want %s", got, want)
				}
				cfg := network.DefaultConfig()
				for _, eng := range []Engine{Fluid, Packet} {
					a, err := eng.run(orig, cfg)
					if err != nil {
						t.Fatal(err)
					}
					b, err := eng.run(imp, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if a.Cycles != b.Cycles {
						t.Fatalf("%s engine: imported schedule finishes in %d cycles, original in %d",
							eng, b.Cycles, a.Cycles)
					}
				}
				if err := collective.VerifyAllReduce(imp, collective.RampInputs(topo.Nodes(), elems)); err != nil {
					t.Fatalf("imported schedule fails correctness: %v", err)
				}
				var again bytes.Buffer
				if err := collective.Export(&again, imp); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(file, again.Bytes()) {
					t.Fatal("re-export of the imported schedule is not byte-identical")
				}
			})
		}
		if covered < 4 {
			t.Errorf("%s: only %d algorithms featured; the menu shrank", spec, covered)
		}
	}
}
