package collective_test

// External test package: exercises the schedule IR round trip with real
// algorithm builders (ring, MultiTree) without an import cycle.

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"multitree/internal/collective"
	"multitree/internal/core"
	"multitree/internal/network"
	"multitree/internal/ring"
	"multitree/internal/topology"
)

func fluidCycles(t *testing.T, s *collective.Schedule) uint64 {
	t.Helper()
	res, err := network.SimulateFluid(s, network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return uint64(res.Cycles)
}

// TestExportImportRoundTrip: export → import reproduces the simulated
// finish time and the all-reduce semantics, and re-export is
// byte-identical.
func TestExportImportRoundTrip(t *testing.T) {
	topo := topology.Torus(4, 4, topology.DefaultLinkConfig())
	const elems = 1 << 12
	for _, build := range []func() (*collective.Schedule, error){
		func() (*collective.Schedule, error) { return ring.Build(topo, elems), nil },
		func() (*collective.Schedule, error) { return core.Build(topo, elems, core.DefaultOptions(topo)) },
	} {
		orig, err := build()
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
			t.Fatalf("%s: import: %v", orig.Algorithm, err)
		}
		if imp.Algorithm != orig.Algorithm || imp.Elems != orig.Elems || imp.Steps != orig.Steps {
			t.Fatalf("%s: header mismatch after import", orig.Algorithm)
		}
		if len(imp.Transfers) != len(orig.Transfers) {
			t.Fatalf("%s: %d transfers, want %d", orig.Algorithm, len(imp.Transfers), len(orig.Transfers))
		}
		if got := collective.TopologyFingerprint(imp.Topo); got != collective.TopologyFingerprint(topo) {
			t.Fatalf("%s: reconstructed topology fingerprint differs", orig.Algorithm)
		}
		if want, got := fluidCycles(t, orig), fluidCycles(t, imp); got != want {
			t.Fatalf("%s: imported schedule finishes in %d cycles, original in %d", orig.Algorithm, got, want)
		}
		if err := collective.VerifyAllReduce(imp, collective.RampInputs(topo.Nodes(), elems)); err != nil {
			t.Fatalf("%s: imported schedule fails correctness: %v", orig.Algorithm, err)
		}

		var again bytes.Buffer
		if err := collective.Export(&again, imp); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(file, again.Bytes()) {
			t.Fatalf("%s: re-export is not byte-identical", orig.Algorithm)
		}
	}
}

// mutateIR decodes an exported IR file, applies fn, and re-encodes it —
// the malformed-file generator for rejection tests.
func mutateIR(t *testing.T, file []byte, fn func(m map[string]any)) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(file, &m); err != nil {
		t.Fatal(err)
	}
	fn(m)
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestImportRejectsMalformed covers the strict-validation matrix: version
// gate, dependency cycles, out-of-range flow indices, links that do not
// exist in the topology, fingerprint drift, and flow-coverage holes.
func TestImportRejectsMalformed(t *testing.T) {
	topo := topology.Torus(2, 2, topology.DefaultLinkConfig())
	var buf bytes.Buffer
	if err := collective.Export(&buf, ring.Build(topo, 64)); err != nil {
		t.Fatal(err)
	}
	file := buf.Bytes()

	transfer := func(m map[string]any, i int) map[string]any {
		return m["transfers"].([]any)[i].(map[string]any)
	}
	wrap := func(obj map[string]any, key string) { obj[key] = obj[key].(float64) + 1<<32 }
	cases := []struct {
		name    string
		mutate  func(m map[string]any)
		wantErr string
	}{
		{
			name:    "unsupported version",
			mutate:  func(m map[string]any) { m["version"] = 99 },
			wantErr: "version",
		},
		{
			name: "dependency cycle",
			mutate: func(m map[string]any) {
				transfer(m, 0)["deps"] = []any{1}
				transfer(m, 1)["deps"] = []any{0}
			},
			wantErr: "cycle",
		},
		{
			name:    "flow index out of range",
			mutate:  func(m map[string]any) { transfer(m, 0)["flow"] = 99 },
			wantErr: "flow 99 out of range",
		},
		{
			name:    "link not in topology",
			mutate:  func(m map[string]any) { transfer(m, 0)["path"] = []any{9999} },
			wantErr: "not in topology",
		},
		{
			name: "disconnected pinned path",
			mutate: func(m map[string]any) {
				p := transfer(m, 0)["path"].([]any)
				transfer(m, 1)["path"] = p // endpoints differ -> chain breaks
			},
			wantErr: "path",
		},
		{
			name: "fingerprint drift",
			mutate: func(m map[string]any) {
				topoM := m["topology"].(map[string]any)
				topoM["links"].([]any)[0].(map[string]any)["bw"] = 1.5
			},
			wantErr: "fingerprint",
		},
		{
			name: "flow coverage hole",
			mutate: func(m map[string]any) {
				flows := m["flows"].([]any)
				last := flows[len(flows)-1].(map[string]any)
				last["len"] = last["len"].(float64) - 1
			},
			wantErr: "uncovered",
		},
		{
			name: "vertex count beyond the links",
			mutate: func(m map[string]any) {
				m["topology"].(map[string]any)["nodes"] = 4000000000000
			},
			wantErr: "4000000000000 nodes",
		},
		{
			name: "switch count beyond the links",
			mutate: func(m map[string]any) {
				m["topology"].(map[string]any)["switches"] = 1 << 40
			},
			wantErr: "1099511627776 switches",
		},
		// Values one 2^32 past a valid one: narrowed unchecked to the
		// int32 transfer fields they would wrap back into range.
		{
			name:    "src wrapped past int32",
			mutate:  func(m map[string]any) { wrap(transfer(m, 0), "src") },
			wantErr: "endpoint out of range",
		},
		{
			name:    "dst wrapped past int32",
			mutate:  func(m map[string]any) { wrap(transfer(m, 0), "dst") },
			wantErr: "endpoint out of range",
		},
		{
			name:    "flow wrapped past int32",
			mutate:  func(m map[string]any) { wrap(transfer(m, 0), "flow") },
			wantErr: "out of range",
		},
		{
			name:    "step wrapped past int32",
			mutate:  func(m map[string]any) { wrap(transfer(m, 0), "step") },
			wantErr: "out of range",
		},
		{
			name: "path hop wrapped past int32",
			mutate: func(m map[string]any) {
				p := transfer(m, 0)["path"].([]any)
				p[0] = p[0].(float64) + 1<<32
			},
			wantErr: "not in topology",
		},
		{
			name: "topology link endpoint wrapped past int32",
			mutate: func(m map[string]any) {
				wrap(m["topology"].(map[string]any)["links"].([]any)[0].(map[string]any), "src")
			},
			wantErr: "bad endpoints",
		},
		{
			name:    "empty pinned path",
			mutate:  func(m map[string]any) { transfer(m, 0)["path"] = []any{} },
			wantErr: "pinned path is empty",
		},
		{
			name: "self transfer",
			mutate: func(m map[string]any) {
				tr := transfer(m, 0)
				tr["dst"] = tr["src"]
			},
			wantErr: "self-transfer",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := mutateIR(t, file, tc.mutate)
			_, err := collective.Import(bytes.NewReader(bad))
			if err == nil {
				t.Fatalf("import accepted a file with %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}

	// The unmutated file must still load, proving the mutations (not the
	// baseline) trigger the rejections.
	if _, err := collective.Import(bytes.NewReader(file)); err != nil {
		t.Fatalf("baseline file rejected: %v", err)
	}
}

// allocBytes returns the heap bytes fn allocates.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// checkAllocBound fails t when decoding data allocated more than the
// decoders' resource bound: 64 bytes per input byte plus 1 MiB, so a
// claimed count can never allocate beyond the bytes present.
func checkAllocBound(t *testing.T, data []byte, used uint64) {
	t.Helper()
	if limit := 64*uint64(len(data)) + 1<<20; used > limit {
		t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), used, limit)
	}
}

// TestImportAllocBound holds the JSON importer to the decoders'
// allocation bound on a valid export whose links, flows or transfers
// are replaced by 100,000 empty elements: three bytes each, far less
// than any decoded form, so a decoder that materializes every element
// before checking it overruns the bound.
func TestImportAllocBound(t *testing.T) {
	topo := topology.Torus(2, 2, topology.DefaultLinkConfig())
	var buf bytes.Buffer
	if err := collective.Export(&buf, ring.Build(topo, 64)); err != nil {
		t.Fatal(err)
	}
	empties := make([]any, 100000)
	for i := range empties {
		empties[i] = map[string]any{}
	}
	for _, field := range []string{"links", "flows", "transfers"} {
		data := mutateIR(t, buf.Bytes(), func(m map[string]any) {
			if field == "links" {
				m["topology"].(map[string]any)["links"] = empties
			} else {
				m[field] = empties
			}
		})
		var err error
		used := allocBytes(func() { _, err = collective.Import(bytes.NewReader(data)) })
		if err == nil {
			t.Fatalf("import accepted %d empty %s", len(empties), field)
		}
		checkAllocBound(t, data, used)
	}
}

// FuzzImport feeds arbitrary bytes to the JSON IR importer. It must never
// panic, must stay within the decoders' allocation bound, and a schedule
// it accepts must export to a fixed point: the export re-imports and
// re-exports to the same bytes. The JSON format admits many spellings of
// one schedule (whitespace, key order), so the fixed point starts at the
// first export, not the input. Seeds include a torus-4x4 export with a
// src, a dst or a path hop pushed 2^32 past its value, which the
// importer must reject rather than narrow back into range.
func FuzzImport(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var s *collective.Schedule
		var err error
		checkAllocBound(t, data, allocBytes(func() { s, err = collective.Import(bytes.NewReader(data)) }))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := collective.Export(&first, s); err != nil {
			t.Fatalf("accepted input does not export: %v", err)
		}
		again, err := collective.Import(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("export of an accepted input does not re-import: %v", err)
		}
		var second bytes.Buffer
		if err := collective.Export(&second, again); err != nil {
			t.Fatalf("re-imported schedule does not export: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("export is not a fixed point: %d bytes, then %d", first.Len(), second.Len())
		}
	})
}
