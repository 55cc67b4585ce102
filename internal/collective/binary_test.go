package collective_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"multitree/internal/collective"
	"multitree/internal/core"
	"multitree/internal/ring"
	"multitree/internal/topology"
)

// buildTorus is the MultiTree schedule most binary-IR tests encode.
func buildTorus(t *testing.T) (*topology.Topology, *collective.Schedule) {
	t.Helper()
	topo := topology.Torus(4, 4, topology.DefaultLinkConfig())
	s, err := core.Build(topo, 1<<12, core.DefaultOptions(topo))
	if err != nil {
		t.Fatal(err)
	}
	return topo, s
}

// importBytes loads an in-memory binary schedule onto topo.
func importBytes(b []byte, topo *topology.Topology, opts collective.BinaryImportOptions) (*collective.Schedule, error) {
	return collective.ImportBinaryInto(bytes.NewReader(b), int64(len(b)), topo, opts)
}

// TestBinaryRoundTrip: the binary IR is lossless against the JSON
// interchange IR — a schedule sent through ExportBinary/ImportBinaryInto
// re-exports to JSON byte-identically, which is what lets the plan cache
// serve an entry in place of a fresh build without changing any -export
// file downstream.
func TestBinaryRoundTrip(t *testing.T) {
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
		var bin bytes.Buffer
		if err := collective.ExportBinary(&bin, orig); err != nil {
			t.Fatal(err)
		}
		imp, err := importBytes(bin.Bytes(), topo, collective.BinaryImportOptions{})
		if err != nil {
			t.Fatalf("%s: binary import: %v", orig.Algorithm, err)
		}
		if imp.Topo != topo {
			t.Fatalf("%s: ImportBinaryInto did not keep the provided topology", orig.Algorithm)
		}
		var wantJSON, haveJSON bytes.Buffer
		if err := collective.Export(&wantJSON, orig); err != nil {
			t.Fatal(err)
		}
		if err := collective.Export(&haveJSON, imp); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantJSON.Bytes(), haveJSON.Bytes()) {
			t.Fatalf("%s: JSON export differs after a binary round trip", orig.Algorithm)
		}
		if err := collective.VerifyAllReduce(imp, collective.RampInputs(topo.Nodes(), elems)); err != nil {
			t.Fatalf("%s: binary-imported schedule fails correctness: %v", orig.Algorithm, err)
		}
	}
}

// TestBinaryFormatPinned pins the encoder's bytes across commits: the
// sha256 of each export must equal the value recorded when the format
// last changed. A mismatch makes every stored cache entry and .plan file
// unreadable garbage under an unchanged BinaryIRVersion; a deliberate
// format change bumps the version and records new values here.
func TestBinaryFormatPinned(t *testing.T) {
	topo, mt := buildTorus(t)
	for _, c := range []struct {
		s    *collective.Schedule
		want string
	}{
		{mt, "54fd6839defa45b4b362b79cf452d600659fde73a19bb054b8a7b21d65e5b76d"},
		{ring.Build(topo, 1<<12), "aca68883360728554268ee9c7d3c803245feba7a0b1befb9d6e32266005ab980"},
	} {
		h := sha256.New()
		if err := collective.ExportBinary(h, c.s); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("%s: export sha256 = %s, want %s", c.s.Algorithm, got, c.want)
		}
	}
}

// TestBinaryStreamMatchesBuffered: streaming into an *os.File (what the
// plan cache's Put does) must produce exactly the bytes written into a
// buffer — root hash included — and load back through the file itself.
func TestBinaryStreamMatchesBuffered(t *testing.T) {
	topo, s := buildTorus(t)
	var buffered bytes.Buffer
	if err := collective.ExportBinary(&buffered, s); err != nil {
		t.Fatal(err)
	}
	f, err := os.CreateTemp(t.TempDir(), "stream-*.plan")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := collective.ExportBinary(f, s); err != nil {
		t.Fatal(err)
	}
	streamed, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buffered.Bytes(), streamed) {
		t.Fatal("streaming export bytes differ from buffered export")
	}
	if _, err := collective.ImportBinaryInto(f, int64(len(streamed)), topo, collective.BinaryImportOptions{}); err != nil {
		t.Fatalf("streamed export does not import: %v", err)
	}
}

// TestJSONImportNamesBinaryPlan: the JSON importer recognizes a binary
// plan by its header and says what to do instead of reporting a JSON
// syntax error.
func TestJSONImportNamesBinaryPlan(t *testing.T) {
	torus := topology.Torus(4, 4, topology.DefaultLinkConfig())
	var buf bytes.Buffer
	if err := collective.ExportBinary(&buf, ring.Build(torus, 256)); err != nil {
		t.Fatal(err)
	}
	_, err := collective.Import(bytes.NewReader(buf.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "binary plans load only onto a live topology") ||
		!strings.Contains(err.Error(), "JSON export") {
		t.Errorf("importing a binary plan as JSON: %v", err)
	}
}

// TestBinaryImportRejects covers the rejection paths that matter for a
// cache that must never serve a wrong plan: foreign files, files of any
// other format version, topology mismatch, and truncation anywhere in
// the stream.
func TestBinaryImportRejects(t *testing.T) {
	torus := topology.Torus(4, 4, topology.DefaultLinkConfig())
	mesh := topology.Mesh(4, 4, topology.DefaultLinkConfig())
	var buf bytes.Buffer
	if err := collective.ExportBinary(&buf, ring.Build(torus, 256)); err != nil {
		t.Fatal(err)
	}
	file := buf.Bytes()
	load := func(b []byte, topo *topology.Topology) error {
		_, err := importBytes(b, topo, collective.BinaryImportOptions{})
		return err
	}

	if err := load(file, torus); err != nil {
		t.Fatalf("baseline file rejected: %v", err)
	}
	if err := load(file, mesh); err == nil {
		t.Fatal("accepted a mesh for a torus schedule")
	} else if !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("unexpected error: %v", err)
	}
	if err := load([]byte(`{"version": 1}`), torus); err == nil {
		t.Fatal("accepted a JSON file as binary")
	}
	// The version follows the 4-byte magic: one byte now, a uvarint in
	// the retired versions 1 to 3, so 300 is the two-byte spelling an
	// unknown later version could have.
	for _, v := range []uint64{1, 2, 3, 99, 300} {
		bad := append(binary.AppendUvarint([]byte("MTIR"), v), file[5:]...)
		err := load(bad, torus)
		if err == nil {
			t.Fatalf("accepted format version %d", v)
		}
		if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("version %d", v)) || !strings.Contains(msg, "re-export") {
			t.Fatalf("version %d: error %q does not name the version and ask for a re-export", v, msg)
		}
	}
	// Version 4 spelled in two bytes, and a varint that overflows.
	for _, head := range [][]byte{{0x84, 0x00}, bytes.Repeat([]byte{0xff}, 11)} {
		bad := append(append([]byte("MTIR"), head...), file[5:]...)
		if err := load(bad, torus); err == nil {
			t.Fatalf("accepted version field % x", head)
		}
	}
	for _, cut := range []int{0, 3, 5, len(file) / 4, len(file) / 2, len(file) - 1} {
		if err := load(file[:cut], torus); err == nil {
			t.Fatalf("accepted a file truncated to %d bytes", cut)
		}
	}
}

// legacyRing is the schedule the recorded legacy files in testdata hold:
// ring.Build(torus-4x4, 256), written by the last encoders of versions
// 1, 2 and 3.
func legacyRing() (*topology.Topology, *collective.Schedule) {
	topo := topology.Torus(4, 4, topology.DefaultLinkConfig())
	return topo, ring.Build(topo, 256)
}

// requireLegacyRejected loads a recorded legacy file sequentially, fanned
// out, and under VerifyFull, and requires every load to fail with an
// error that names the file's version and asks for a re-export.
func requireLegacyRejected(t *testing.T, name string, version uint64) {
	t.Helper()
	file, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file[:5], binary.AppendUvarint([]byte("MTIR"), version)) {
		t.Fatalf("%s: header % x is not a version-%d header", name, file[:5], version)
	}
	topo, _ := legacyRing()
	for _, opts := range []collective.BinaryImportOptions{{}, {Workers: 8}, {VerifyFull: true}} {
		_, err := importBytes(file, topo, opts)
		if err == nil {
			t.Fatalf("%s: %+v: version-%d file accepted", name, opts, version)
		}
		if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("version %d", version)) || !strings.Contains(msg, "re-export") {
			t.Fatalf("%s: %+v: error %q does not name version %d and ask for a re-export", name, opts, msg, version)
		}
	}
}

// TestBinaryV1Compat: a real version-1 file is refused, never decoded as
// some other schedule. The refusal names the version and asks for a
// re-export, and VerifyFull cannot rescue it.
func TestBinaryV1Compat(t *testing.T) {
	requireLegacyRejected(t, "ring-v1.plan", 1)
}

// TestBinaryV2ToV3RoundTrip walks the migration that a refused
// version-2 or version-3 file asks for. The recorded v2 and v3 files are
// rejected with a re-export error. Re-exporting the same build writes a
// current file, which loads and reproduces the schedule byte for byte.
func TestBinaryV2ToV3RoundTrip(t *testing.T) {
	requireLegacyRejected(t, "ring-v2.plan", 2)
	requireLegacyRejected(t, "ring-v3.plan", 3)
	topo, s := legacyRing()
	var cur bytes.Buffer
	if err := collective.ExportBinary(&cur, s); err != nil {
		t.Fatal(err)
	}
	if want := append([]byte("MTIR"), collective.BinaryIRVersion); !bytes.HasPrefix(cur.Bytes(), want) {
		t.Fatalf("re-export header % x, want % x", cur.Bytes()[:5], want)
	}
	got, err := importBytes(cur.Bytes(), topo, collective.BinaryImportOptions{})
	if err != nil {
		t.Fatalf("re-exported file does not load: %v", err)
	}
	var want, have bytes.Buffer
	if err := collective.Export(&want, s); err != nil {
		t.Fatal(err)
	}
	if err := collective.Export(&have, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), have.Bytes()) {
		t.Fatal("re-exported file loads a different schedule")
	}
}

// TestTreesToScheduleParallelDeterministic: the lowered schedule — and
// therefore its binary IR, content hash included — is byte-identical at
// every worker count.
func TestTreesToScheduleParallelDeterministic(t *testing.T) {
	topo := topology.Torus(4, 4, topology.DefaultLinkConfig())
	trees, err := core.BuildTrees(topo, core.DefaultOptions(topo))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for _, workers := range []int{1, 2, 3, 8, 64} {
		s, err := collective.TreesToScheduleParallel(core.Algorithm, topo, 1<<12, trees, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := collective.ExportBinary(&buf, s); err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			want = buf
			continue
		}
		if !bytes.Equal(want.Bytes(), buf.Bytes()) {
			t.Fatalf("workers=%d lowers to different bytes than workers=1", workers)
		}
	}
}

// FuzzImportBinary feeds arbitrary bytes to the decoder as a torus-4x4
// schedule. It must never panic, must stay within the decoders'
// allocation bound (the meta counts must give the exact file size
// before the arenas are allocated), and any input it accepts must
// re-export to exactly those bytes: a schedule has one spelling in the
// format, so nothing outside the digests can vary unnoticed.
func FuzzImportBinary(f *testing.F) {
	topo := topology.Torus(4, 4, topology.DefaultLinkConfig())
	f.Fuzz(func(t *testing.T, data []byte) {
		var s *collective.Schedule
		var err error
		checkAllocBound(t, data, allocBytes(func() {
			s, err = importBytes(data, topo, collective.BinaryImportOptions{Workers: 2})
		}))
		if err != nil {
			return
		}
		var re bytes.Buffer
		if err := collective.ExportBinary(&re, s); err != nil {
			t.Fatalf("accepted input does not re-export: %v", err)
		}
		if !bytes.Equal(re.Bytes(), data) {
			t.Fatalf("accepted %d bytes that re-export to %d different bytes", len(data), re.Len())
		}
	})
}

// FuzzImportBinaryRecords fuzzes the checks behind the digests: the load
// skips its root and chunk digest comparisons, so a mutation anywhere
// reaches the meta bounds and every range, offset, link and flow check.
// It must never panic and must stay within the decoders' allocation
// bound, and a schedule it accepts must be safe to use: validating and
// executing it may fail, but must not panic. The seeds are a torus-2x2
// export and the same file with flow 1 running past Elems, which a
// loader that took flow ranges unchecked accepted and Execute then
// sliced out of range.
func FuzzImportBinaryRecords(f *testing.F) {
	topo := topology.Torus(2, 2, topology.DefaultLinkConfig())
	f.Fuzz(func(t *testing.T, data []byte) {
		var s *collective.Schedule
		var err error
		checkAllocBound(t, data, allocBytes(func() {
			s, err = collective.ImportBinarySkippingDigests(data, topo, collective.BinaryImportOptions{Workers: 2})
		}))
		if err != nil {
			return
		}
		s.ValidateStrict()
		if s.Elems <= 1<<12 {
			collective.Execute(s, collective.RampInputs(topo.Nodes(), s.Elems))
		}
	})
}
