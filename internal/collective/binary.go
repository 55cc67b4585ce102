package collective

// A compact binary rendering of the schedule IR, for the plan cache's
// hot load path. The JSON IR of encoding.go stays the interchange
// format — self-contained, diffable, hand-editable; this encoding
// trades all of that for decode speed: a 1024-node MultiTree schedule
// (~2M transfers) loads in a few hundred milliseconds where the JSON
// form takes ten seconds, which is the difference between a plan cache
// that pays for itself and one that loses to re-planning.
//
// The format is not self-contained: it records the topology's
// fingerprint, not its link list, so it can only be loaded onto a live
// topology that hashes to the same value (ImportBinaryInto). That is
// exactly the plan cache's situation.
//
// Validation happens at store time. The exporter runs the full
// ValidateStrict pass once, then embeds a summary of what it proved —
// transfer/dependency/path-hop/link counts, the coverage extent, and a
// witness hash of the deterministic topological order — plus sha256
// digests over every body byte (sections.go). A load checks the digests
// and the summary's cross-checks in O(bytes) instead of re-running Kahn
// and per-path continuity over millions of transfers;
// BinaryImportOptions.VerifyFull restores the full pass. The cache
// directory was always trusted to hold what the exporter wrote (an
// adversary who can write arbitrary cache files could always substitute
// a different valid schedule); the digests turn silent corruption into
// a rebuild.
//
// Only the current version is read. Files of an earlier version fail
// with an error that asks for a re-export.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"

	"multitree/internal/obs"
	"multitree/internal/topology"
)

// BinaryIRVersion is the binary schedule encoding version: version 3 is
// the sectioned, parallel-decodable layout of sections.go. Versions 1
// and 2 were single varint streams and are no longer read. A format
// change makes old cache keys unreachable (a cache miss) rather than
// misread.
const BinaryIRVersion = 3

// binaryMagic brands binary schedule files. Distinct from both JSON
// ('{') and anything a truncated write leaves behind.
const binaryMagic = "MTIR"

// binaryHeader is the prefix of every current file: the magic, then the
// version as a uvarint. The root hash follows it.
var binaryHeader = binary.AppendUvarint([]byte(binaryMagic), BinaryIRVersion)

const (
	opReduceBin = 0
	opGatherBin = 1
)

// hashSize is sha256's digest length, the size of both the content
// digests and the topo-order witness hash.
const hashSize = sha256.Size

// summary is the store-time validation record in the meta block: the
// exact arena sizes the decoder preallocates, and the evidence that the
// full ValidateStrict pass ran when the file was written.
type summary struct {
	// Transfers/DepEdges/PathHops are the exact entity counts; the
	// decoder sizes its arenas from them, and the section table must
	// cover them exactly.
	Transfers int64
	DepEdges  int64
	PathHops  int64

	// LinksUsed is the number of distinct directed links appearing in
	// pinned paths; the decoder recounts it as it scans.
	LinksUsed int64

	// CoveredElems is the gradient extent the flow-coverage check proved
	// covered at store time (Elems, or 0 for an empty schedule where the
	// check is vacuous).
	CoveredElems int64

	// Witness is the sha256 over the schedule's deterministic topological
	// order (little-endian uint32 ids), recorded when store-time
	// validation computed it. A VerifyFull load recomputes and compares.
	Witness [hashSize]byte
}

// BinaryImportOptions controls how ImportBinaryInto validates.
type BinaryImportOptions struct {
	// VerifyFull re-runs the complete ValidateStrict pass (and checks the
	// witness hash) instead of trusting the stored summary — the
	// -verify-plan escape hatch.
	VerifyFull bool

	// Observer, when non-nil, brackets the materialization and validation
	// work as the "decode" and "validate" planner phases.
	Observer obs.PlanObserver

	// Workers bounds the goroutines the load fans section decoding
	// across; <= 1 decodes sequentially. The decoded schedule is
	// byte-identical at any worker count.
	Workers int
}

// binWriter accumulates uvarints into one growing buffer; encoding a
// schedule is a single allocation-amortized append stream. With out set
// it instead streams: appends spill through the buffer — now a bounded
// window — into the writer whenever it fills, so encoding never
// materializes the body. Routing out through an io.MultiWriter over the
// file and a hasher is the store's hash-while-write path.
type binWriter struct {
	out io.Writer
	buf []byte
	tmp [binary.MaxVarintLen64]byte
	err error
}

// flush drains the window into out; a no-op in buffered mode.
func (w *binWriter) flush() {
	if w.out == nil {
		return
	}
	if w.err == nil && len(w.buf) > 0 {
		_, w.err = w.out.Write(w.buf)
	}
	w.buf = w.buf[:0]
}

// room makes space for an n-byte append in streaming mode.
func (w *binWriter) room(n int) {
	if w.out != nil && len(w.buf)+n > cap(w.buf) {
		w.flush()
	}
}

func (w *binWriter) uint(v uint64) {
	n := binary.PutUvarint(w.tmp[:], v)
	w.room(n)
	w.buf = append(w.buf, w.tmp[:n]...)
}

// sint writes one zigzag-coded signed value — the encoder half of
// sliceDecoder.sint.
func (w *binWriter) sint(v int64) {
	w.uint(uint64(v)<<1 ^ uint64(v>>63))
}

func (w *binWriter) str(s string) {
	w.uint(uint64(len(s)))
	w.room(len(s))
	w.buf = append(w.buf, s...)
}

func (w *binWriter) bytes(p []byte) {
	w.room(len(p))
	w.buf = append(w.buf, p...)
}

// witnessHash folds a topological order into its sha256 witness.
func witnessHash(order []TransferID) [hashSize]byte {
	h := sha256.New()
	var buf [4096]byte
	i := 0
	for _, id := range order {
		binary.LittleEndian.PutUint32(buf[i:], uint32(id))
		if i += 4; i == len(buf) {
			h.Write(buf[:])
			i = 0
		}
	}
	h.Write(buf[:i])
	var out [hashSize]byte
	h.Sum(out[:0])
	return out
}

// linkBitmap counts distinct directed links across pinned paths.
type linkBitmap struct {
	words []uint64
	count int64
}

func newLinkBitmap(links int) *linkBitmap {
	return &linkBitmap{words: make([]uint64, (links+63)/64)}
}

func (b *linkBitmap) add(id topology.LinkID) {
	w, bit := id>>6, uint64(1)<<(id&63)
	if b.words[w]&bit == 0 {
		b.words[w] |= bit
		b.count++
	}
}

// summarize computes the validation summary of a schedule whose strict
// validation just produced order.
func summarize(s *Schedule, order []TransferID) summary {
	sum := summary{
		Transfers: int64(len(s.Transfers)),
		DepEdges:  int64(s.DepEdges()),
		Witness:   witnessHash(order),
	}
	bm := newLinkBitmap(len(s.Topo.Links()))
	for i := range s.Transfers {
		path := s.PathOf(i)
		sum.PathHops += int64(len(path))
		for _, id := range path {
			bm.add(id)
		}
	}
	sum.LinksUsed = bm.count
	if len(s.Transfers) > 0 && s.Elems > 0 {
		sum.CoveredElems = int64(s.Elems)
	}
	return sum
}

// ExportBinary writes the schedule in the binary IR. Like Export, every
// transfer's link path is pinned, so the loaded schedule reproduces the
// exact link-level behavior; unlike Export, the topology is recorded
// only by fingerprint. The schedule is strictly validated here, at store
// time, and the file carries the summary and content digests that let a
// later load trust the result without repeating the pass.
//
// When w can seek (a file), the stream is written in one pass with the
// root hash patched at the end; non-seekable writers assemble the stream
// in memory first. The emitted bytes are identical either way.
func ExportBinary(w io.Writer, s *Schedule) error {
	order, err := s.validatedOrder(true)
	if err != nil {
		return fmt.Errorf("collective: refusing to export invalid schedule: %w", err)
	}
	sum := summarize(s, order)
	if ws, ok := w.(io.WriteSeeker); ok {
		return writeBinary(ws, s, sum)
	}
	var buf bufWriteSeeker
	if err := writeBinary(&buf, s, sum); err != nil {
		return err
	}
	_, err = w.Write(buf.buf)
	return err
}

// ImportBinaryInto reads a binary schedule IR of size bytes from r onto
// an existing topology. The load is accepted on the file's stored
// summary and content digests, or, with opts.VerifyFull, on the full
// ValidateStrict pass. Sections are read with positioned reads and
// decoded on up to opts.Workers goroutines into arenas sized from the
// summary, whose claims are bounded by size before anything is
// allocated. An *os.File with its Stat size, or a *bytes.Reader with its
// Len, serves as r.
func ImportBinaryInto(r io.ReaderAt, size int64, topo *topology.Topology, opts BinaryImportOptions) (*Schedule, error) {
	ld := &loader{ra: r, topo: topo, opts: opts}
	if err := ld.readHeader(size); err != nil {
		return nil, err
	}
	return ld.load()
}

// readHeader checks the magic and version, reads the root hash, and
// points the loader at the body that follows.
func (ld *loader) readHeader(size int64) error {
	var head [len(binaryMagic) + binary.MaxVarintLen64]byte
	n := min(max(size, 0), int64(len(head)))
	if err := ld.readAt(head[:n], 0); err != nil {
		return err
	}
	if !bytes.HasPrefix(head[:n], binaryHeader) {
		if !bytes.HasPrefix(head[:n], []byte(binaryMagic)) {
			return fmt.Errorf("collective: not a binary schedule file")
		}
		d := &sliceDecoder{buf: head[len(binaryMagic):n]}
		switch v := d.uint(); {
		case d.err != nil:
			return badSchedule("version: %w", d.err)
		case v != BinaryIRVersion:
			return fmt.Errorf("collective: binary schedule version %d is not supported (current is %d); re-export it", v, BinaryIRVersion)
		}
		// The current version spelled in more than one byte. The root
		// hash does not cover the header, so only the exporter's spelling
		// is accepted.
		return badSchedule("non-canonical version field")
	}
	hl := int64(len(binaryHeader))
	if size < hl+hashSize {
		return badSchedule("truncated stream: %w", io.ErrUnexpectedEOF)
	}
	if err := ld.readAt(ld.root[:], hl); err != nil {
		return err
	}
	ld.base, ld.size = hl+hashSize, size-hl-hashSize
	return nil
}

// verifyFull is the -verify-plan path: the complete ValidateStrict pass
// plus a recomputation of the stored topological-order witness.
func verifyFull(s *Schedule, sum *summary, o obs.PlanObserver) error {
	if o != nil {
		o.PhaseStart(obs.PhaseValidate)
		defer func() {
			o.PhaseEnd(obs.PhaseValidate, obs.PlanCounters{
				Transfers:       int64(len(s.Transfers)),
				FullValidations: 1,
			})
		}()
	}
	order, err := s.validatedOrder(true)
	if err != nil {
		return fmt.Errorf("collective: binary schedule failed validation: %w", err)
	}
	if w := witnessHash(order); w != sum.Witness {
		return fmt.Errorf("collective: binary schedule witness hash does not match its topological order")
	}
	return nil
}
