package collective

// The binary IR's sectioned layout, which makes warm plan loads
// parallel: the schedule is split into independently decodable sections
// and stripes.
//
//	magic "MTIR" | uvarint version=3 | root sha256[32]
//	meta        (algorithm, fingerprint, elems, steps, summary, flow count)
//	sections    (flows; then per transfer stripe: records, deps, hops)
//	footer      (section table: kind, element range, byte range, digest)
//	trailer[16] (footer offset + length, little-endian uint64s)
//
// Every section carries its own sha256 in the footer, and the root hash
// covers meta||footer — a two-level tree hash, so both verification and
// decode parallelize over sections while any single flipped bit anywhere
// in the stream still fails the load: section bytes are pinned by their
// digest, digests and byte ranges by the root, the root by the header
// field, and the trailer by the requirement that footer+trailer end
// flush against the section bytes.
//
// Transfers are striped (transfersPerStripe records per section), with
// each stripe's dependency and path-hop values split into companion
// sections indexed into the Schedule's own CSR arenas — the layout
// TreesToScheduleParallel fills too, which is what makes the decoded
// Schedule byte-identical at any worker count: stripe k writes
// Transfers[lo:hi), their arena offsets and its fixed arena ranges no
// matter which goroutine runs it, and a worker that decodes a deps
// stripe writes arena elements while another writes the offsets that
// index them — disjoint memory, no ordering between them until the
// final join.
//
// Correlated fields are delta-coded as zigzag varints, with the delta
// chain resetting at every section boundary so sections stay
// independently decodable: a transfer's dst is coded against its own
// src, flow and step against the previous record in the stripe, and
// dependency values chain through the dep section (planner output
// orders deps roughly by owner, so consecutive values are near). At
// mesh-64x64 scale this is a third of the stream — and, more
// importantly for the warm-load budget, it turns most multi-byte
// varints into one-byte ones that decode on the fast path. Path hops
// measured no better under deltas and stay absolute.
//
// Loads read through an io.ReaderAt (plain pread per section, no shared
// cursor, no mmap).

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync/atomic"
	"time"

	"multitree/internal/obs"
	"multitree/internal/topology"
)

// Section kinds of the footer table.
const (
	secFlows     = 0 // flow ranges; exactly one section
	secTransfers = 1 // fixed transfer records (src,dst,op,flow,step,ndeps,nhops)
	secDeps      = 2 // dependency values, flat arena order
	secPaths     = 3 // path-hop link ids, flat arena order
)

// transfersPerStripe fixes the stripe width of the transfer sections. It
// is an encoder constant, not a format parameter — the footer records
// each stripe's extent, so decoders accept any striping — chosen so a
// mesh-64x64 schedule (~33M transfers) splits into a few hundred
// stripes: enough grain to keep 8 workers busy, few enough that the
// footer stays in the tens of kilobytes.
const transfersPerStripe = 1 << 17

// trailerLen is the fixed trailer: footer offset + footer length as
// little-endian uint64s, in body coordinates (byte 0 = first meta byte).
const trailerLen = 16

// maxSections and maxMetaLen bound hostile table/meta claims before
// anything is allocated from them; maxStringLen bounds the algorithm and
// fingerprint strings, both short.
const (
	maxSections  = 1 << 20
	maxMetaLen   = 1 << 20
	maxStringLen = 1 << 16
)

// sectionEntry is one row of the footer table.
type sectionEntry struct {
	kind      uint64
	elemOff   uint64 // first element index the section covers, per kind
	elemCount uint64
	auxDep    uint64 // transfers stripes: dep arena offset at stripe start
	auxPath   uint64 // transfers stripes: path arena offset at stripe start
	byteOff   uint64 // body coordinates
	byteLen   uint64
	digest    [hashSize]byte
}

// sliceDecoder decodes uvarints from a fully buffer-resident section.
// There is no window to refill, so the common case — a one-byte varint —
// inlines to a bounds check and a compare; section decode throughput is
// what the warm-load budget is spent on.
type sliceDecoder struct {
	buf []byte
	pos int
	err error
}

func (d *sliceDecoder) uint() uint64 {
	if d.err == nil && d.pos < len(d.buf) {
		if b := d.buf[d.pos]; b < 0x80 {
			d.pos++
			return uint64(b)
		}
	}
	return d.uintSlow()
}

// uintSlow is the multi-byte continuation of uint, hand-rolled rather
// than sliced through binary.Uvarint: the re-slice plus call overhead is
// measurable at tens of millions of values per load. Semantics match
// binary.Uvarint exactly, including the >64-bit overflow rule.
func (d *sliceDecoder) uintSlow() uint64 {
	if d.err != nil {
		return 0
	}
	var v uint64
	s := uint(0)
	for i := d.pos; i < len(d.buf); i++ {
		b := d.buf[i]
		if b < 0x80 {
			if s == 63 && b > 1 {
				d.err = fmt.Errorf("varint overflow")
				return 0
			}
			d.pos = i + 1
			return v | uint64(b)<<s
		}
		v |= uint64(b&0x7f) << s
		s += 7
		if s >= 64 {
			d.err = fmt.Errorf("varint overflow")
			return 0
		}
	}
	d.err = fmt.Errorf("truncated varint: %w", io.ErrUnexpectedEOF)
	return 0
}

// sint reads one zigzag-coded signed value.
func (d *sliceDecoder) sint() int64 {
	v := d.uint()
	return int64(v>>1) ^ -int64(v&1)
}

func (d *sliceDecoder) bytes(p []byte) {
	if d.err != nil {
		return
	}
	if len(d.buf)-d.pos < len(p) {
		d.err = fmt.Errorf("truncated stream: %w", io.ErrUnexpectedEOF)
		return
	}
	copy(p, d.buf[d.pos:])
	d.pos += len(p)
}

func (d *sliceDecoder) str(limit int64) string {
	n := d.intCap("string", limit)
	if d.err != nil || n == 0 {
		return ""
	}
	b := make([]byte, n)
	d.bytes(b)
	if d.err != nil {
		return ""
	}
	return string(b)
}

// intCap reads a count and rejects values beyond limit, so a corrupt
// length cannot drive a huge allocation.
func (d *sliceDecoder) intCap(what string, limit int64) int {
	v := d.uint()
	if d.err != nil {
		return 0
	}
	if v > uint64(limit) {
		d.err = fmt.Errorf("%s count %d exceeds limit %d", what, v, limit)
		return 0
	}
	return int(v)
}

// done reports whether the section was consumed exactly.
func (d *sliceDecoder) done() bool { return d.err == nil && d.pos == len(d.buf) }

// countWriter tracks the byte offset of everything written through it,
// with sticky errors; section byte ranges come straight off its cursor.
type countWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.err = err
	return n, err
}

// bufWriteSeeker adapts the streaming exporter to non-seekable sinks:
// the stream assembles in memory, then ships in one Write. Only the
// hash-patch seek is ever used, so the implementation stays minimal.
type bufWriteSeeker struct {
	buf []byte
	pos int64
}

func (b *bufWriteSeeker) Write(p []byte) (int, error) {
	if need := b.pos + int64(len(p)); need > int64(len(b.buf)) {
		if need > int64(cap(b.buf)) {
			grown := make([]byte, need, max(need, int64(2*cap(b.buf))))
			copy(grown, b.buf)
			b.buf = grown
		}
		b.buf = b.buf[:need]
	}
	copy(b.buf[b.pos:], p)
	b.pos += int64(len(p))
	return len(p), nil
}

func (b *bufWriteSeeker) Seek(off int64, whence int) (int64, error) {
	switch whence {
	case io.SeekStart:
		b.pos = off
	case io.SeekCurrent:
		b.pos += off
	case io.SeekEnd:
		b.pos = int64(len(b.buf)) + off
	}
	if b.pos < 0 || b.pos > int64(len(b.buf)) {
		return 0, fmt.Errorf("collective: seek out of buffered range")
	}
	return b.pos, nil
}

// encodeMeta renders the meta block: everything the loader needs
// before it can size arenas and fan out — header fields, the validation
// summary, and the flow count (flow data itself is a section).
func encodeMeta(s *Schedule, sum summary) []byte {
	bw := &binWriter{buf: make([]byte, 0, 256)}
	bw.str(s.Algorithm)
	bw.str(TopologyFingerprint(s.Topo))
	bw.uint(uint64(s.Elems))
	bw.uint(uint64(s.Steps))
	bw.uint(uint64(sum.Transfers))
	bw.uint(uint64(sum.DepEdges))
	bw.uint(uint64(sum.PathHops))
	bw.uint(uint64(sum.LinksUsed))
	bw.uint(uint64(sum.CoveredElems))
	bw.bytes(sum.Witness[:])
	bw.uint(uint64(len(s.Flows)))
	return bw.buf
}

// encodeFooter renders the section table.
func encodeFooter(entries []sectionEntry) []byte {
	bw := &binWriter{buf: make([]byte, 0, 64+48*len(entries))}
	bw.uint(uint64(len(entries)))
	for i := range entries {
		e := &entries[i]
		bw.uint(e.kind)
		bw.uint(e.elemOff)
		bw.uint(e.elemCount)
		bw.uint(e.auxDep)
		bw.uint(e.auxPath)
		bw.uint(e.byteOff)
		bw.uint(e.byteLen)
		bw.bytes(e.digest[:])
	}
	return bw.buf
}

// encodeSections streams the section data — flows first, then each
// transfer stripe followed by its dep and path-hop stripes — recording
// byte ranges and per-section digests as it goes. Section bytes never
// materialize beyond the bounded window.
func encodeSections(cw *countWriter, s *Schedule, sum summary) ([]sectionEntry, error) {
	window := make([]byte, 0, 1<<18)
	var entries []sectionEntry
	h := sha256.New()
	emit := func(kind int, elemOff, elemCount, auxDep, auxPath int64, fill func(bw *binWriter)) error {
		h.Reset()
		off := cw.n
		bw := &binWriter{out: io.MultiWriter(cw, h), buf: window}
		fill(bw)
		bw.flush()
		if bw.err != nil {
			return bw.err
		}
		if cw.err != nil {
			return cw.err
		}
		e := sectionEntry{
			kind:    uint64(kind),
			elemOff: uint64(elemOff), elemCount: uint64(elemCount),
			auxDep: uint64(auxDep), auxPath: uint64(auxPath),
			byteOff: uint64(off), byteLen: uint64(cw.n - off),
		}
		h.Sum(e.digest[:0])
		entries = append(entries, e)
		return nil
	}

	if err := emit(secFlows, 0, int64(len(s.Flows)), 0, 0, func(bw *binWriter) {
		for _, r := range s.Flows {
			bw.uint(uint64(r.Off))
			bw.uint(uint64(r.Len))
		}
	}); err != nil {
		return nil, err
	}

	nt := len(s.Transfers)
	var dOff, pOff int64
	for lo := 0; lo < nt; lo += transfersPerStripe {
		hi := min(lo+transfersPerStripe, nt)
		var dCount, pCount int64
		if err := emit(secTransfers, int64(lo), int64(hi-lo), dOff, pOff, func(bw *binWriter) {
			var prevFlow, prevStep int64
			for i := lo; i < hi; i++ {
				t := &s.Transfers[i]
				bw.uint(uint64(t.Src))
				bw.sint(int64(t.Dst) - int64(t.Src))
				op := uint64(opReduceBin)
				if t.Op == Gather {
					op = opGatherBin
				}
				bw.uint(op)
				bw.sint(int64(t.Flow) - prevFlow)
				bw.sint(int64(t.Step) - prevStep)
				prevFlow, prevStep = int64(t.Flow), int64(t.Step)
				deps := s.Deps(i)
				bw.uint(uint64(len(deps)))
				path := s.PathOf(i)
				bw.uint(uint64(len(path)))
				dCount += int64(len(deps))
				pCount += int64(len(path))
			}
		}); err != nil {
			return nil, err
		}
		if err := emit(secDeps, dOff, dCount, 0, 0, func(bw *binWriter) {
			var prev int64
			for i := lo; i < hi; i++ {
				for _, d := range s.Deps(i) {
					bw.sint(int64(d) - prev)
					prev = int64(d)
				}
			}
		}); err != nil {
			return nil, err
		}
		if err := emit(secPaths, pOff, pCount, 0, 0, func(bw *binWriter) {
			for i := lo; i < hi; i++ {
				for _, id := range s.PathOf(i) {
					bw.uint(uint64(id))
				}
			}
		}); err != nil {
			return nil, err
		}
		dOff += dCount
		pOff += pCount
	}
	if dOff != sum.DepEdges || pOff != sum.PathHops {
		return nil, fmt.Errorf("collective: internal error: sections emitted %d deps/%d hops, summary has %d/%d",
			dOff, pOff, sum.DepEdges, sum.PathHops)
	}
	return entries, nil
}

// writeBinary streams the whole file in one pass: header with a zero
// root placeholder, meta, sections, footer and trailer, then a seek back
// to patch the root hash over the placeholder.
func writeBinary(w io.WriteSeeker, s *Schedule, sum summary) error {
	start, err := w.Seek(0, io.SeekCurrent)
	if err != nil {
		return err
	}
	head := append(append([]byte(nil), binaryHeader...), make([]byte, hashSize)...)
	if _, err := w.Write(head); err != nil {
		return err
	}

	// Everything below goes through the counting writer, so section byte
	// offsets land directly in body coordinates (0 = first meta byte).
	cw := &countWriter{w: w}
	meta := encodeMeta(s, sum)
	if _, err := cw.Write(meta); err != nil {
		return err
	}
	entries, err := encodeSections(cw, s, sum)
	if err != nil {
		return err
	}
	footOff := cw.n
	footer := encodeFooter(entries)
	if _, err := cw.Write(footer); err != nil {
		return err
	}
	var trailer [trailerLen]byte
	binary.LittleEndian.PutUint64(trailer[0:], uint64(footOff))
	binary.LittleEndian.PutUint64(trailer[8:], uint64(len(footer)))
	if _, err := cw.Write(trailer[:]); err != nil {
		return err
	}

	// Root hash: meta || footer. The footer's digests pin the section
	// bytes, so this is the only whole-file pass — and meta+footer are
	// kilobytes.
	h := sha256.New()
	h.Write(meta)
	h.Write(footer)
	var root [hashSize]byte
	h.Sum(root[:0])
	if _, err := w.Seek(start+int64(len(binaryHeader)), io.SeekStart); err != nil {
		return err
	}
	if _, err := w.Write(root[:]); err != nil {
		return err
	}
	_, err = w.Seek(0, io.SeekEnd)
	return err
}

// loader carries the shared state of one import: verify the root over
// meta+footer, size every arena from the summary, then fan the sections
// out across opts.Workers goroutines — each a pread, a digest check, and
// a buffer-resident varint decode into its disjoint slice of the shared
// arenas.
type loader struct {
	topo *topology.Topology
	opts BinaryImportOptions
	root [hashSize]byte
	ra   io.ReaderAt
	base int64 // stream offset of body coordinate 0
	size int64 // body bytes, trailer included

	s       *Schedule
	sum     summary
	nf      int
	entries []sectionEntry
	depEnd  []int64 // per transfers stripe: exclusive dep arena bound
	pathEnd []int64 // per transfers stripe: exclusive path arena bound

	// Per-entry results of the decode fan-out, merged deterministically.
	errs    []error
	maxStep []int
	bitmaps []*linkBitmap // per worker

	decodeNs, verifyNs atomic.Int64
}

func badSchedule(format string, args ...any) error {
	return fmt.Errorf("collective: bad binary schedule: "+format, args...)
}

func (ld *loader) readAt(p []byte, off int64) error {
	_, err := ld.ra.ReadAt(p, ld.base+off)
	if err != nil {
		return badSchedule("truncated stream: %w", err)
	}
	return nil
}

func (ld *loader) load() (*Schedule, error) {
	t0 := time.Now()
	meta, err := ld.readTable()
	if err != nil {
		return nil, err
	}
	ld.verifyNs.Add(time.Since(t0).Nanoseconds())
	if err := ld.parseMeta(meta); err != nil {
		return nil, err
	}
	if err := ld.planSections(); err != nil {
		return nil, err
	}

	o := ld.opts.Observer
	if o != nil {
		o.PhaseStart(obs.PhaseDecode)
	}
	err = ld.decodeAll()
	if o != nil {
		o.PhaseEnd(obs.PhaseDecode, obs.PlanCounters{
			Transfers:   ld.sum.Transfers,
			DecodeNanos: ld.decodeNs.Load(),
		})
	}
	if err != nil {
		return nil, err
	}

	// The summary path reports the cross-checks as its validate phase;
	// the full path reports the ValidateStrict pass that follows them.
	summaryPhase := o != nil && !ld.opts.VerifyFull
	if summaryPhase {
		o.PhaseStart(obs.PhaseValidate)
	}
	err = ld.crossCheck()
	if summaryPhase {
		c := obs.PlanCounters{Transfers: ld.sum.Transfers, VerifyNanos: ld.verifyNs.Load()}
		if err == nil {
			c.SummaryValidations = 1
		}
		o.PhaseEnd(obs.PhaseValidate, c)
	}
	if err == nil && ld.opts.VerifyFull {
		err = verifyFull(ld.s, &ld.sum, o)
	}
	if err != nil {
		return nil, err
	}
	return ld.s, nil
}

// readTable locates and parses the footer, pins every byte of the body
// to a structural role, and verifies the root hash — after which any
// surviving corruption must be confined to section bytes, where the
// per-section digests catch it. Returns the meta block bytes.
func (ld *loader) readTable() ([]byte, error) {
	if ld.size < trailerLen {
		return nil, badSchedule("truncated stream: %w", io.ErrUnexpectedEOF)
	}
	var tr [trailerLen]byte
	if err := ld.readAt(tr[:], ld.size-trailerLen); err != nil {
		return nil, err
	}
	footOff := binary.LittleEndian.Uint64(tr[0:8])
	footLen := binary.LittleEndian.Uint64(tr[8:16])
	// The footer must end flush against the trailer: no slack bytes
	// anywhere, so a tampered trailer cannot point at a forged table
	// hidden inside the stream without the contiguity checks below
	// failing.
	if footLen == 0 || footLen > uint64(ld.size)-trailerLen ||
		footOff != uint64(ld.size)-trailerLen-footLen {
		return nil, badSchedule("section table out of place")
	}
	footer := make([]byte, footLen)
	if err := ld.readAt(footer, int64(footOff)); err != nil {
		return nil, err
	}

	d := &sliceDecoder{buf: footer}
	// Each entry costs at least seven one-byte varints and a digest.
	n := d.intCap("section", min(maxSections, int64(footLen)/(7+hashSize)))
	if d.err == nil && n == 0 {
		return nil, badSchedule("no sections")
	}
	entries := make([]sectionEntry, n)
	for i := range entries {
		e := &entries[i]
		e.kind = d.uint()
		e.elemOff = d.uint()
		e.elemCount = d.uint()
		e.auxDep = d.uint()
		e.auxPath = d.uint()
		e.byteOff = d.uint()
		e.byteLen = d.uint()
		d.bytes(e.digest[:])
	}
	if d.err != nil || !d.done() {
		err := d.err
		if err == nil {
			err = fmt.Errorf("trailing bytes in section table")
		}
		return nil, badSchedule("%w", err)
	}
	// Sections must tile [metaLen, footOff) contiguously in table order:
	// together with the root hash over meta||footer this accounts for
	// every body byte exactly once.
	metaLen := entries[0].byteOff
	if metaLen > maxMetaLen {
		return nil, badSchedule("meta block of %d bytes", metaLen)
	}
	at := metaLen
	for i := range entries {
		e := &entries[i]
		if e.byteOff != at || e.byteLen > footOff-at {
			return nil, badSchedule("section %d bytes out of place", i)
		}
		at += e.byteLen
	}
	if at != footOff {
		return nil, badSchedule("sections cover %d bytes, data has %d", at-metaLen, footOff-metaLen)
	}

	meta := make([]byte, metaLen)
	if err := ld.readAt(meta, 0); err != nil {
		return nil, err
	}
	h := sha256.New()
	h.Write(meta)
	h.Write(footer)
	var got [hashSize]byte
	h.Sum(got[:0])
	if got != ld.root {
		return nil, badSchedule("content hash mismatch (corrupt or tampered entry)")
	}
	ld.entries = entries
	return meta, nil
}

// parseMeta decodes the meta block, checks the header fields against
// the live topology, and bounds the summary's claimed sizes by the body
// size.
func (ld *loader) parseMeta(meta []byte) error {
	d := &sliceDecoder{buf: meta}
	algorithm := d.str(maxStringLen)
	fingerprint := d.str(maxStringLen)
	s := &Schedule{
		Algorithm: algorithm,
		Topo:      ld.topo,
		Elems:     d.intCap("elems", 1<<56),
		Steps:     d.intCap("steps", 1<<56),
	}
	sum := &ld.sum
	sum.Transfers = int64(d.intCap("transfer", maxArena))
	sum.DepEdges = int64(d.intCap("dep", maxArena))
	sum.PathHops = int64(d.intCap("path hop", maxArena))
	sum.LinksUsed = int64(d.intCap("link", 1<<40))
	sum.CoveredElems = int64(d.intCap("covered elem", 1<<56))
	d.bytes(sum.Witness[:])
	// One flow per tree; always dwarfed by transfers on non-trivial
	// schedules, with a floor for degenerate ones.
	ld.nf = d.intCap("flow", max(sum.Transfers, 1<<16))
	if d.err == nil && !d.done() {
		d.err = fmt.Errorf("trailing bytes in meta block")
	}
	if d.err != nil {
		return badSchedule("%w", d.err)
	}
	if got := TopologyFingerprint(ld.topo); got != fingerprint {
		return fmt.Errorf("collective: topology %s does not match binary schedule (fingerprint %s, file has %s)",
			ld.topo.Name(), got, fingerprint)
	}
	if s.Elems < 1 {
		return fmt.Errorf("collective: schedule has %d elements", s.Elems)
	}
	// Each transfer record costs >= 7 section bytes, each flow >= 2,
	// each dep and path hop >= 1: a summary whose claimed sizes could not
	// fit in the body is rejected before anything is allocated from it.
	if sum.Transfers*7+2*int64(ld.nf)+sum.DepEdges+sum.PathHops > ld.size {
		return badSchedule("summary claims %d transfers/%d flows/%d deps/%d hops in a %d-byte body",
			sum.Transfers, ld.nf, sum.DepEdges, sum.PathHops, ld.size)
	}
	ld.s = s
	return nil
}

// planSections checks that each kind's sections tile its element space
// exactly and derives the per-transfers-stripe arena bounds from the
// aux-offset chain.
func (ld *loader) planSections() error {
	ld.depEnd = make([]int64, len(ld.entries))
	ld.pathEnd = make([]int64, len(ld.entries))
	var flowSections int
	var tAt, dAt, pAt int64 // next expected element index per kind
	lastT := -1             // index of the previous transfers stripe
	for i := range ld.entries {
		e := &ld.entries[i]
		switch e.kind {
		case secFlows:
			if flowSections++; flowSections > 1 {
				return badSchedule("duplicate flow section")
			}
			if e.elemOff != 0 || e.elemCount != uint64(ld.nf) {
				return badSchedule("flow section covers [%d,+%d), want %d flows", e.elemOff, e.elemCount, ld.nf)
			}
		case secTransfers:
			if e.elemOff != uint64(tAt) || e.elemCount > uint64(ld.sum.Transfers-tAt) {
				return badSchedule("transfer section %d covers [%d,+%d), want offset %d", i, e.elemOff, e.elemCount, tAt)
			}
			if e.auxDep > uint64(ld.sum.DepEdges) || e.auxPath > uint64(ld.sum.PathHops) {
				return badSchedule("transfer section %d arena offsets out of range", i)
			}
			if lastT >= 0 {
				ld.depEnd[lastT] = int64(e.auxDep)
				ld.pathEnd[lastT] = int64(e.auxPath)
				if ld.depEnd[lastT] < int64(ld.entries[lastT].auxDep) ||
					ld.pathEnd[lastT] < int64(ld.entries[lastT].auxPath) {
					return badSchedule("transfer section %d arena offsets regress", i)
				}
			} else if e.auxDep != 0 || e.auxPath != 0 {
				return badSchedule("first transfer section starts mid-arena")
			}
			tAt += int64(e.elemCount)
			lastT = i
		case secDeps:
			if e.elemOff != uint64(dAt) || e.elemCount > uint64(ld.sum.DepEdges-dAt) {
				return badSchedule("dep section %d covers [%d,+%d), want offset %d", i, e.elemOff, e.elemCount, dAt)
			}
			dAt += int64(e.elemCount)
		case secPaths:
			if e.elemOff != uint64(pAt) || e.elemCount > uint64(ld.sum.PathHops-pAt) {
				return badSchedule("path section %d covers [%d,+%d), want offset %d", i, e.elemOff, e.elemCount, pAt)
			}
			pAt += int64(e.elemCount)
		default:
			return badSchedule("unknown section kind %d", e.kind)
		}
	}
	if lastT >= 0 {
		ld.depEnd[lastT] = ld.sum.DepEdges
		ld.pathEnd[lastT] = ld.sum.PathHops
		if ld.depEnd[lastT] < int64(ld.entries[lastT].auxDep) ||
			ld.pathEnd[lastT] < int64(ld.entries[lastT].auxPath) {
			return badSchedule("last transfer section arena offsets regress")
		}
	}
	if flowSections == 0 {
		return badSchedule("no flow section")
	}
	if tAt != ld.sum.Transfers || dAt != ld.sum.DepEdges || pAt != ld.sum.PathHops {
		return badSchedule("sections cover %d transfers/%d deps/%d hops, summary claims %d/%d/%d",
			tAt, dAt, pAt, ld.sum.Transfers, ld.sum.DepEdges, ld.sum.PathHops)
	}
	return nil
}

// decodeAll allocates the arenas and fans section decoding out across
// the workers, then merges per-entry results deterministically: the
// lowest-indexed section's error wins regardless of scheduling.
func (ld *loader) decodeAll() error {
	workers := ld.opts.Workers
	if workers < 1 {
		workers = 1
	}
	ld.s.Flows = make([]Range, ld.nf)
	ld.s.Transfers = make([]Transfer, ld.sum.Transfers)
	ld.s.depOff = make([]int32, ld.sum.Transfers+1)
	ld.s.pathOff = make([]int32, ld.sum.Transfers+1)
	ld.s.deps = make([]TransferID, ld.sum.DepEdges)
	ld.s.paths = make([]topology.LinkID, ld.sum.PathHops)
	ld.errs = make([]error, len(ld.entries))
	ld.maxStep = make([]int, len(ld.entries))
	ld.bitmaps = make([]*linkBitmap, workers)
	bufs := make([][]byte, workers)
	runTreeTasks(workers, len(ld.entries), func(w, i int) {
		ld.errs[i] = ld.decodeSection(w, i, &bufs[w])
	})
	for i, err := range ld.errs {
		if err != nil {
			return fmt.Errorf("%w (section %d)", err, i)
		}
	}
	return nil
}

// decodeSection loads, verifies and decodes one section into its
// disjoint region of the shared arrays. buf is the worker's reusable
// read buffer.
func (ld *loader) decodeSection(w, i int, buf *[]byte) error {
	e := &ld.entries[i]
	if int64(e.byteLen) > int64(cap(*buf)) {
		*buf = make([]byte, e.byteLen)
	}
	b := (*buf)[:e.byteLen]
	t0 := time.Now()
	if err := ld.readAt(b, int64(e.byteOff)); err != nil {
		return err
	}
	t1 := time.Now()
	if sha256.Sum256(b) != e.digest {
		ld.verifyNs.Add(time.Since(t1).Nanoseconds())
		return badSchedule("content hash mismatch (corrupt or tampered entry)")
	}
	t2 := time.Now()
	ld.verifyNs.Add(t2.Sub(t1).Nanoseconds())

	d := &sliceDecoder{buf: b}
	var err error
	switch e.kind {
	case secFlows:
		err = ld.decodeFlows(d, e)
	case secTransfers:
		err = ld.decodeTransfers(d, e, i)
	case secDeps:
		err = ld.decodeDeps(d, e)
	case secPaths:
		err = ld.decodePaths(d, e, w)
	}
	ld.decodeNs.Add(time.Since(t2).Nanoseconds() + t1.Sub(t0).Nanoseconds())
	if err == nil && d.err != nil {
		err = badSchedule("%w", d.err)
	}
	if err == nil && !d.done() {
		err = badSchedule("trailing bytes in section")
	}
	return err
}

func (ld *loader) decodeFlows(d *sliceDecoder, e *sectionEntry) error {
	for j := uint64(0); j < e.elemCount; j++ {
		off := d.uint()
		length := d.uint()
		ld.s.Flows[e.elemOff+j] = Range{Off: int(off), Len: int(length)}
	}
	return nil
}

func (ld *loader) decodeTransfers(d *sliceDecoder, e *sectionEntry, i int) error {
	nodes := topology.NodeID(ld.topo.Nodes())
	dcur, pcur := int64(e.auxDep), int64(e.auxPath)
	dEnd, pEnd := ld.depEnd[i], ld.pathEnd[i]
	lo := int(e.elemOff)
	hi := lo + int(e.elemCount)
	maxStep := 0
	var prevFlow, prevStep int64
	for j := lo; j < hi; j++ {
		t := &ld.s.Transfers[j]
		src := int64(d.uint())
		dst := src + d.sint()
		op := d.uint()
		flow := prevFlow + d.sint()
		step := prevStep + d.sint()
		nd := d.uint()
		np := d.uint()
		if d.err != nil {
			return badSchedule("%w", d.err)
		}
		// Range checks run on int64 before narrowing: a hostile delta
		// cannot wrap a sum of two in-range values back into range.
		if src < 0 || src >= int64(nodes) || dst < 0 || dst >= int64(nodes) {
			return fmt.Errorf("collective: transfer %d: endpoint out of range (%d->%d)", j, src, dst)
		}
		t.Src = topology.NodeID(src)
		t.Dst = topology.NodeID(dst)
		switch op {
		case opReduceBin:
			t.Op = Reduce
		case opGatherBin:
			t.Op = Gather
		default:
			return fmt.Errorf("collective: transfer %d has unknown op %d", j, op)
		}
		if flow < 0 || flow >= int64(ld.nf) {
			return fmt.Errorf("collective: transfer %d: flow %d out of range", j, flow)
		}
		if step < 0 || step > int64(ld.s.Steps) || step > math.MaxInt32 {
			return fmt.Errorf("collective: transfer %d: step %d out of range", j, step)
		}
		t.Flow = int32(flow)
		t.Step = int32(step)
		prevFlow, prevStep = flow, step
		if nd > uint64(dEnd-dcur) {
			return badSchedule("transfer %d overruns its dep stripe", j)
		}
		if np > uint64(pEnd-pcur) {
			return badSchedule("transfer %d overruns its path stripe", j)
		}
		dcur += int64(nd)
		pcur += int64(np)
		// parseMeta bounds both arenas by maxArena, so the offsets fit.
		ld.s.depOff[j+1] = int32(dcur)
		ld.s.pathOff[j+1] = int32(pcur)
		maxStep = max(maxStep, int(step))
	}
	if dcur != dEnd || pcur != pEnd {
		return badSchedule("transfer section deps/hops end at %d/%d, table says %d/%d", dcur, pcur, dEnd, pEnd)
	}
	ld.maxStep[i] = maxStep
	return nil
}

func (ld *loader) decodeDeps(d *sliceDecoder, e *sectionEntry) error {
	nt := ld.sum.Transfers
	var prev int64
	for j := uint64(0); j < e.elemCount; j++ {
		v := prev + d.sint()
		if v < 0 || v >= nt {
			if d.err == nil {
				return fmt.Errorf("collective: dep %d out of range", v)
			}
			return badSchedule("%w", d.err)
		}
		ld.s.deps[e.elemOff+j] = TransferID(v)
		prev = v
	}
	return nil
}

func (ld *loader) decodePaths(d *sliceDecoder, e *sectionEntry, w int) error {
	links := uint64(len(ld.topo.Links()))
	bm := ld.bitmaps[w]
	if bm == nil {
		bm = newLinkBitmap(int(links))
		ld.bitmaps[w] = bm
	}
	for j := uint64(0); j < e.elemCount; j++ {
		v := d.uint()
		if v >= links {
			if d.err == nil {
				return fmt.Errorf("collective: path link %d out of range", v)
			}
			return badSchedule("%w", d.err)
		}
		ld.s.paths[e.elemOff+j] = topology.LinkID(v)
		bm.add(topology.LinkID(v))
	}
	return nil
}

// crossCheck is the post-join summary validation: the per-worker link
// bitmaps union to the summary's distinct-link count, steps bound the
// decoded maximum, and coverage matches. The dep and hop counts need no
// check here: the section tables enforce them structurally.
func (ld *loader) crossCheck() error {
	var merged *linkBitmap
	for _, bm := range ld.bitmaps {
		if bm == nil {
			continue
		}
		if merged == nil {
			merged = bm
			continue
		}
		for w, word := range bm.words {
			merged.words[w] |= word
		}
	}
	var linksUsed int64
	if merged != nil {
		for _, word := range merged.words {
			linksUsed += int64(bits.OnesCount64(word))
		}
	}
	if linksUsed != ld.sum.LinksUsed {
		return badSchedule("summary claims %d links used, stream has %d", ld.sum.LinksUsed, linksUsed)
	}
	maxStep := 0
	for _, st := range ld.maxStep {
		if st > maxStep {
			maxStep = st
		}
	}
	if ld.s.Steps < maxStep {
		return fmt.Errorf("collective: schedule claims %d steps but has a transfer at step %d", ld.s.Steps, maxStep)
	}
	if len(ld.s.Transfers) > 0 && ld.s.Elems > 0 && ld.sum.CoveredElems != int64(ld.s.Elems) {
		return badSchedule("summary covers %d of %d elements", ld.sum.CoveredElems, ld.s.Elems)
	}
	return nil
}
