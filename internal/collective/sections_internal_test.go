package collective

// Internal tests of the binary IR. The hand-rolled varint decoder's slow
// path must match encoding/binary.Uvarint bit-for-bit — including the
// 10th-byte overflow rule — because the encoder writes with
// binary.PutUvarint and the wire format's tamper rejection depends on
// every out-of-spec byte sequence being an error, not a silent wrap. The
// witness test needs a forged summary, which only the encoder's
// internals can write, and the summary test reads the summary the loader
// decoded, which only its internals hold.

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"multitree/internal/topology"
)

// varintCorpus mixes boundary values with a deterministic LCG sweep so
// every encoded length (1..10 bytes) and both zigzag signs appear.
func varintCorpus() []uint64 {
	vals := []uint64{
		0, 1, 0x7f, 0x80, 0x3fff, 0x4000, 0x1fffff, 0x200000,
		math.MaxUint32, math.MaxUint64, math.MaxUint64 - 1,
		1 << 62, (1 << 63) - 1, 1 << 63,
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 200; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		// Vary the magnitude so short encodings are well represented.
		vals = append(vals, x>>(x%64))
	}
	return vals
}

func TestSliceDecoderMatchesStdUvarint(t *testing.T) {
	for _, v := range varintCorpus() {
		var buf [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(buf[:], v)
		d := &sliceDecoder{buf: buf[:n]}
		got := d.uint()
		if d.err != nil {
			t.Fatalf("decode(%#x): unexpected error %v", v, d.err)
		}
		if got != v || d.pos != n {
			t.Fatalf("decode(%#x) = %#x, pos %d; want %#x, pos %d", v, got, d.pos, v, n)
		}
	}
}

func TestSliceDecoderSintRoundTrip(t *testing.T) {
	signed := []int64{0, 1, -1, 63, -64, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	for _, v := range varintCorpus() {
		signed = append(signed, int64(v), -int64(v))
	}
	for _, v := range signed {
		var w binWriter
		w.buf = w.buf[:0]
		w.sint(v)
		d := &sliceDecoder{buf: w.buf}
		got := d.sint()
		if d.err != nil {
			t.Fatalf("sint(%d): unexpected error %v", v, d.err)
		}
		if got != v || !d.done() {
			t.Fatalf("sint round trip: got %d (done=%v), want %d", got, d.done(), v)
		}
	}
}

func TestSliceDecoderRejectsWhatStdRejects(t *testing.T) {
	cases := [][]byte{
		// 10 continuation bytes: longer than any valid encoding.
		{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
		// 10th byte > 1 would overflow 64 bits (binary.Uvarint returns n<0).
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
		// Truncated multi-byte varints.
		{0x80},
		{0xff, 0xff, 0xff},
		{},
	}
	for i, c := range cases {
		if v, n := binary.Uvarint(c); n > 0 {
			t.Fatalf("case %d: corpus error — stdlib accepts %v as %d", i, c, v)
		}
		d := &sliceDecoder{buf: c}
		d.uint()
		if d.err == nil {
			t.Fatalf("case %d: decoder accepted invalid varint % x", i, c)
		}
	}
	// The maximum valid encoding (10 bytes, final byte 0x01) must still
	// decode: it is exactly math.MaxUint64 and the overflow guard must
	// not fire one value early.
	max := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	d := &sliceDecoder{buf: max}
	if got := d.uint(); d.err != nil || got != math.MaxUint64 {
		t.Fatalf("max encoding: got %#x, err %v", got, d.err)
	}
}

// TestBinaryV2SummaryLoad: a default load is accepted on the stored
// validation summary, and the summary the loader read describes the
// schedule exactly: the counts it sized its arenas from are the
// schedule's own, recounted here. The trusted result still passes the
// full validation.
func TestBinaryV2SummaryLoad(t *testing.T) {
	topo := topology.Mesh(2, 2, topology.DefaultLinkConfig())
	s, err := TreesToSchedule("unit", topo, 400, []*Tree{chainTree()})
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if err := ExportBinary(&file, s); err != nil {
		t.Fatal(err)
	}
	ld := &loader{ra: bytes.NewReader(file.Bytes()), topo: topo}
	if err := ld.readHeader(int64(file.Len())); err != nil {
		t.Fatal(err)
	}
	got, err := ld.load()
	if err != nil {
		t.Fatal(err)
	}
	var deps, hops int64
	links := map[topology.LinkID]bool{}
	for i := range s.Transfers {
		deps += int64(len(s.Deps(i)))
		path := s.PathOf(i)
		hops += int64(len(path))
		for _, id := range path {
			links[id] = true
		}
	}
	sum := ld.sum
	if sum.Transfers != int64(len(s.Transfers)) || sum.DepEdges != deps || sum.PathHops != hops {
		t.Fatalf("summary %+v does not match schedule (%d transfers, %d deps, %d hops)",
			sum, len(s.Transfers), deps, hops)
	}
	if sum.LinksUsed != int64(len(links)) || sum.CoveredElems != int64(s.Elems) {
		t.Fatalf("summary uses %d links covering %d elems, schedule uses %d covering %d",
			sum.LinksUsed, sum.CoveredElems, len(links), s.Elems)
	}
	if err := got.ValidateStrict(); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyFullChecksWitness: a file whose digests are all consistent
// but whose summary records a different topological-order witness loads
// on its summary; only the VerifyFull pass recomputes the witness and
// rejects it.
func TestVerifyFullChecksWitness(t *testing.T) {
	topo := topology.Mesh(2, 2, topology.DefaultLinkConfig())
	s, err := TreesToSchedule("unit", topo, 400, []*Tree{chainTree()})
	if err != nil {
		t.Fatal(err)
	}
	order, err := s.validatedOrder(true)
	if err != nil {
		t.Fatal(err)
	}
	sum := summarize(s, order)
	sum.Witness[0] ^= 1
	var file bufWriteSeeker
	if err := writeBinary(&file, s, sum); err != nil {
		t.Fatal(err)
	}
	load := func(full bool) error {
		_, err := ImportBinaryInto(bytes.NewReader(file.buf), int64(len(file.buf)), topo, BinaryImportOptions{VerifyFull: full})
		return err
	}
	if err := load(false); err != nil {
		t.Fatalf("summary load rejected a digest-consistent file: %v", err)
	}
	if err := load(true); err == nil || !strings.Contains(err.Error(), "witness") {
		t.Fatalf("VerifyFull load: err = %v, want a witness mismatch", err)
	}
}

// TestParseMetaBoundsFlowClaim: a meta block claiming more flows than
// the body could encode (two bytes each at least) is rejected before
// the flow table is allocated from the claim.
func TestParseMetaBoundsFlowClaim(t *testing.T) {
	topo := topology.Mesh(2, 2, topology.DefaultLinkConfig())
	s, err := TreesToSchedule("unit", topo, 400, []*Tree{chainTree()})
	if err != nil {
		t.Fatal(err)
	}
	order, err := s.validatedOrder(true)
	if err != nil {
		t.Fatal(err)
	}
	sum := summarize(s, order)
	claim := s.WithFlows(s.Elems, make([]Range, 1<<16))
	meta := encodeMeta(claim, sum)
	size := int64(7*len(s.Transfers)+s.DepEdges()) + sum.PathHops + 2*int64(len(s.Flows))
	ld := &loader{topo: topo, size: size}
	if err := ld.parseMeta(meta); err == nil || !strings.Contains(err.Error(), "65536 flows") {
		t.Fatalf("parseMeta of a %d-flow claim in a %d-byte body: err = %v, want the claim refused", 1<<16, size, err)
	}
	ld = &loader{topo: topo, size: size}
	if err := ld.parseMeta(encodeMeta(s, sum)); err != nil {
		t.Fatalf("parseMeta of the honest meta block: %v", err)
	}
}
