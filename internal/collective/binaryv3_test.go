package collective_test

// Tests of the binary IR's trust and parallel-decode machinery: the materialized schedule is byte-identical at every worker
// count, every single-bit flip is rejected sequentially and fanned out, and the
// VerifyFull escape hatch runs the full validation pass.

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"multitree/internal/collective"
	"multitree/internal/core"
	"multitree/internal/obs"
	"multitree/internal/topology"
)

// TestBinaryV3ParallelDecodeInvariance: importing one file at any worker
// count materializes the same schedule — pinned by re-exporting each
// load and comparing bytes, root hash included. Each load is accepted on
// its stored summary, whose cross-checks prove the summary's counts
// describe the decoded schedule, and the trusted result still passes the
// full validation.
func TestBinaryV3ParallelDecodeInvariance(t *testing.T) {
	topo, s := buildTorus(t)
	var buf bytes.Buffer
	if err := collective.ExportBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	for _, workers := range []int{1, 2, 3, 8, 64} {
		prof := obs.NewPlanProfile()
		got, err := importBytes(good, topo, collective.BinaryImportOptions{Workers: workers, Observer: prof})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if c := validateCounters(prof); c.SummaryValidations != 1 || c.FullValidations != 0 {
			t.Fatalf("workers=%d: validate counters %+v, want one summary validation", workers, c)
		}
		var re bytes.Buffer
		if err := collective.ExportBinary(&re, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(good, re.Bytes()) {
			t.Fatalf("workers=%d: decoded schedule re-exports to different bytes", workers)
		}
		if err := got.ValidateStrict(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

// validateCounters returns the counters a load reported for its
// validate phase.
func validateCounters(p *obs.PlanProfile) obs.PlanCounters {
	for _, ph := range p.Phases() {
		if ph.Phase == obs.PhaseValidate {
			return ph.Counters
		}
	}
	return obs.PlanCounters{}
}

// sweepBitFlips flips one bit at a time across everything after the
// header of an export (meta, every array, the digests, the root) and
// requires the decoder to reject every variant. Flips that keep the
// records in range must be caught by a digest ("content hash
// mismatch"), and the sweep must engage that backstop at least once.
func sweepBitFlips(t *testing.T, opts collective.BinaryImportOptions) {
	t.Helper()
	topo, s := buildTorus(t)
	var buf bytes.Buffer
	if err := collective.ExportBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	// The meta block starts after magic(4) + version(1).
	const bodyOff = 4 + 1
	hashCaught := 0
	// Step a few bytes at a time to keep the sweep fast; the sampled
	// offsets still cover every region of the body.
	for off := bodyOff; off < len(good); off += 3 {
		bad := bytes.Clone(good)
		bad[off] ^= 0x01
		_, err := importBytes(bad, topo, opts)
		if err == nil {
			t.Fatalf("%+v: bit flip at offset %d accepted", opts, off)
		}
		if strings.Contains(err.Error(), "content hash mismatch") {
			hashCaught++
		}
	}
	if hashCaught == 0 {
		t.Fatalf("%+v: no flip was caught by a content digest; the backstop never engaged", opts)
	}
}

// TestBinaryV2NoSingleBitFlipAccepted: the bit-flip sweep against the
// default, sequential load.
func TestBinaryV2NoSingleBitFlipAccepted(t *testing.T) {
	sweepBitFlips(t, collective.BinaryImportOptions{})
}

// TestBinaryV3TamperRejectedParallel: the bit-flip sweep against a load
// fanned out over eight workers, where a missed check would race
// instead of fail.
func TestBinaryV3TamperRejectedParallel(t *testing.T) {
	sweepBitFlips(t, collective.BinaryImportOptions{Workers: 8})
}

// TestBinaryV3RootHashCoversTrailer: the root hash, the file's last 32
// bytes, covers the meta block and the digest list. A flip in the root
// itself, in a meta field the size check does not see (elems, the
// witness), or in a chunk digest must fail the root comparison.
func TestBinaryV3RootHashCoversTrailer(t *testing.T) {
	topo, s := buildTorus(t)
	var buf bytes.Buffer
	if err := collective.ExportBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	n := buf.Len()
	const meta = 4 + 1 // the meta head: two u32 string lengths, then elems
	for _, c := range []struct {
		what string
		off  int
	}{
		{"root (first byte)", n - 32},
		{"root (last byte)", n - 1},
		{"meta elems", meta + 8},
		{"meta witness", meta + 8 + 16 + 40},
		{"last chunk digest", n - 64},
		// Six arrays of under 2^16 records each: one chunk apiece.
		{"first chunk digest", n - 32 - 32*6},
	} {
		bad := bytes.Clone(buf.Bytes())
		bad[c.off] ^= 0x80
		_, err := importBytes(bad, topo, collective.BinaryImportOptions{Workers: 4})
		if err == nil || !strings.Contains(err.Error(), "content hash mismatch") {
			t.Fatalf("flip in %s at offset %d: err = %v, want a root mismatch", c.what, c.off, err)
		}
	}
}

// TestBinaryV3VerifyFull: the escape hatch forces the complete
// validation pass, witness hash included, in place of the summary
// check.
func TestBinaryV3VerifyFull(t *testing.T) {
	topo, s := buildTorus(t)
	var buf bytes.Buffer
	if err := collective.ExportBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	prof := obs.NewPlanProfile()
	if _, err := importBytes(buf.Bytes(), topo,
		collective.BinaryImportOptions{VerifyFull: true, Workers: 8, Observer: prof}); err != nil {
		t.Fatal(err)
	}
	if c := validateCounters(prof); c.FullValidations != 1 || c.SummaryValidations != 0 {
		t.Fatalf("validate counters %+v, want one full validation", c)
	}
}

// TestBinaryV3Truncated: cutting the file at any of a few points —
// inside the root, the digests, an array, the meta block — must reject,
// never hang or mis-decode.
func TestBinaryV3Truncated(t *testing.T) {
	topo, s := buildTorus(t)
	var buf bytes.Buffer
	if err := collective.ExportBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	for _, n := range []int{len(good) - 1, len(good) - 8, len(good) - 17, len(good) / 2, 40} {
		if _, err := importBytes(good[:n], topo, collective.BinaryImportOptions{Workers: 4}); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", n, len(good))
		}
	}
}

// memBytesFormula is MemBytes written out from the public view: header,
// flow table, transfer array, both len(Transfers)+1 offset arrays, and
// one 4-byte entry per dependency and per pinned path hop.
func memBytesFormula(s *collective.Schedule) int64 {
	var hops int
	for i := range s.Transfers {
		hops += len(s.Path(i))
	}
	n := int64(len(s.Transfers))
	return int64(unsafe.Sizeof(*s)) +
		int64(len(s.Flows))*int64(unsafe.Sizeof(collective.Range{})) +
		n*int64(unsafe.Sizeof(collective.Transfer{})) +
		2*(n+1)*4 +
		int64(s.DepEdges())*4 + int64(hops)*4
}

// TestScheduleMemBytes pins the memory tier's cost function to real
// memory. MemBytes must equal the layout formula exactly, both for a
// lowered plan (routed paths unpinned) and a decoded one (every path
// pinned), and must come within 10% of the live heap an ImportBinary
// of a mesh-16x16 MultiTree plan actually retains — what evicting it
// frees.
func TestScheduleMemBytes(t *testing.T) {
	topo, built := buildTorus(t)
	var buf bytes.Buffer
	if err := collective.ExportBinary(&buf, built); err != nil {
		t.Fatal(err)
	}
	decoded, err := importBytes(buf.Bytes(), topo, collective.BinaryImportOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*collective.Schedule{built, decoded} {
		if got, want := s.MemBytes(), memBytesFormula(s); got != want {
			t.Fatalf("MemBytes = %d, layout formula gives %d", got, want)
		}
	}

	mesh := topology.Mesh(16, 16, topology.DefaultLinkConfig())
	plan, err := core.Build(mesh, 1<<16, core.DefaultOptions(mesh))
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := collective.ExportBinary(&buf, plan); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	plan = nil
	live := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := live()
	s, err := importBytes(data, mesh, collective.BinaryImportOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	retained := live() - before
	runtime.KeepAlive(data)
	mem := s.MemBytes()
	if diff := math.Abs(float64(mem - retained)); diff > 0.1*float64(retained) {
		t.Fatalf("MemBytes = %d, but the decoded plan retains %d heap bytes (off by %.1f%%)",
			mem, retained, 100*diff/float64(retained))
	}
	runtime.KeepAlive(s)
}

// TestTransferLayout: a transfer is one fixed-size, pointer-free table
// entry — at most 24 bytes, with no field the garbage collector must
// scan — and carries no dependency or path field of its own.
func TestTransferLayout(t *testing.T) {
	if size := unsafe.Sizeof(collective.Transfer{}); size > 24 {
		t.Fatalf("Transfer is %d bytes, want at most 24", size)
	}
	var hasPointer func(reflect.Type) bool
	hasPointer = func(rt reflect.Type) bool {
		switch rt.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.Chan,
			reflect.Func, reflect.Interface, reflect.String:
			return true
		case reflect.Array:
			return hasPointer(rt.Elem())
		case reflect.Struct:
			for i := 0; i < rt.NumField(); i++ {
				if hasPointer(rt.Field(i).Type) {
					return true
				}
			}
		}
		return false
	}
	rt := reflect.TypeOf(collective.Transfer{})
	if hasPointer(rt) {
		t.Fatal("Transfer holds a pointer")
	}
	for _, name := range []string{"Deps", "Path"} {
		if _, ok := rt.FieldByName(name); ok {
			t.Fatalf("Transfer has a %s field; it belongs in the schedule's arenas", name)
		}
	}
}
