package experiments

// Golden-cycle regression harness for the network engines. For every
// algorithm the registry supports on each of the paper's four evaluation
// fabrics, both engines' complete observable behavior is reduced to
// digests: the exact Result (Cycles, TransferDone, LinkBusy, byte
// totals) and the full traced event stream (kind, timestamps, ids, in
// emission order). The digests are pinned in testdata/golden_engines.json,
// generated from the pre-refactor closure-based engines, so any rewrite
// of the discrete-event core or the packet hot path must reproduce the
// old behavior bit for bit — not just "close enough" cycle counts.
//
// Regenerate (only when an intentional semantic change is made) with:
//
//	go test ./internal/experiments -run TestGoldenEngineDigests -update-golden

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"multitree/internal/algorithms"
	"multitree/internal/collective"
	"multitree/internal/network"
	"multitree/internal/obs"
	"multitree/internal/topospec"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden_engines.json from the current engines")

const goldenFile = "testdata/golden_engines.json"

// goldenEntry pins one (topology, algorithm, engine) run.
type goldenEntry struct {
	Topology     string `json:"topology"`
	Algorithm    string `json:"algorithm"`
	Engine       string `json:"engine"`
	Cycles       uint64 `json:"cycles"`
	Events       int    `json:"events"`
	ResultDigest string `json:"result_digest"`
	TraceDigest  string `json:"trace_digest"`
}

func goldenKey(topo, alg, eng string) string { return topo + "/" + alg + "/" + eng }

// digestResult hashes every observable field of a Result in a fixed
// byte order.
func digestResult(res *network.Result) string {
	h := sha256.New()
	le := binary.LittleEndian
	var buf [8]byte
	put64 := func(v uint64) {
		le.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put64(uint64(res.Cycles))
	put64(uint64(res.PayloadBytes))
	put64(uint64(res.WireBytes))
	put64(uint64(len(res.TransferDone)))
	for _, t := range res.TransferDone {
		put64(uint64(t))
	}
	put64(uint64(len(res.LinkBusy)))
	for _, t := range res.LinkBusy {
		put64(uint64(t))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// digestEvents hashes the full traced event stream in emission order.
func digestEvents(events []obs.Event) string {
	h := sha256.New()
	h.Write(eventStreamBytes(events))
	return fmt.Sprintf("%x", h.Sum(nil))
}

// eventStreamBytes serializes events to a canonical byte form, also used
// by the determinism test to compare two runs byte for byte.
func eventStreamBytes(events []obs.Event) []byte {
	le := binary.LittleEndian
	out := make([]byte, 0, len(events)*49)
	var buf [8]byte
	for i := range events {
		ev := &events[i]
		out = append(out, byte(ev.Kind))
		for _, f := range [3]float64{ev.At, ev.Dur, ev.Busy} {
			le.PutUint64(buf[:], math.Float64bits(f))
			out = append(out, buf[:]...)
		}
		for _, v := range [5]int32{ev.Transfer, ev.Link, ev.Node, ev.Flow, ev.Step} {
			le.PutUint32(buf[:4], uint32(v))
			out = append(out, buf[:4]...)
		}
		le.PutUint64(buf[:], uint64(ev.Bytes))
		out = append(out, buf[:]...)
	}
	return out
}

// TestGoldenEngineDigests runs every registry algorithm x topology pair
// through both engines with a recorder attached and checks the digests
// against the pinned pre-refactor values.
func TestGoldenEngineDigests(t *testing.T) {
	const dataBytes = 64 << 10
	const elems = dataBytes / collective.WordSize

	var entries []goldenEntry
	for _, spec := range []string{"torus-4x4", "mesh-4x4", "fattree-16", "bigraph-32"} {
		topo, err := topospec.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range algorithms.Supporting(topo) {
			s, err := algorithms.Build(topo, alg.Name, elems, algorithms.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, eng := range []Engine{Fluid, Packet} {
				rec := &obs.Recorder{}
				cfg := network.DefaultConfig()
				cfg.Tracer = rec
				res, err := eng.run(s, cfg)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", spec, alg.Name, eng, err)
				}
				entries = append(entries, goldenEntry{
					Topology:     spec,
					Algorithm:    alg.Name,
					Engine:       eng.String(),
					Cycles:       uint64(res.Cycles),
					Events:       len(rec.Events),
					ResultDigest: digestResult(res),
					TraceDigest:  digestEvents(rec.Events),
				})
			}
		}
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(entries, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s with %d entries", goldenFile, len(entries))
		return
	}

	data, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("missing golden file (generate with -update-golden): %v", err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	wantByKey := make(map[string]goldenEntry, len(want))
	for _, e := range want {
		wantByKey[goldenKey(e.Topology, e.Algorithm, e.Engine)] = e
	}
	if len(entries) != len(want) {
		t.Errorf("have %d engine runs, golden file pins %d", len(entries), len(want))
	}
	for _, got := range entries {
		key := goldenKey(got.Topology, got.Algorithm, got.Engine)
		w, ok := wantByKey[key]
		if !ok {
			t.Errorf("%s: no golden entry (regenerate with -update-golden)", key)
			continue
		}
		if got.Cycles != w.Cycles {
			t.Errorf("%s: %d cycles, golden %d", key, got.Cycles, w.Cycles)
		}
		if got.Events != w.Events {
			t.Errorf("%s: %d traced events, golden %d", key, got.Events, w.Events)
		}
		if got.ResultDigest != w.ResultDigest {
			t.Errorf("%s: Result digest %s, golden %s", key, got.ResultDigest, w.ResultDigest)
		}
		if got.TraceDigest != w.TraceDigest {
			t.Errorf("%s: trace digest %s, golden %s", key, got.TraceDigest, w.TraceDigest)
		}
	}
}
