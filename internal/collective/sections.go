package collective

// The binary IR's layout. Every part has a width fixed by the counts in
// the meta block, so a reader knows the exact file size, and where every
// record sits, before it reads past the meta block:
//
//	magic "MTIR" | version byte 4
//	meta     metaHead (fixed-width, little-endian), algorithm, fingerprint
//	arrays   flows, transfers, dep offsets, deps, path offsets, path hops
//	digests  one sha256 per chunk, in file order
//	root     sha256 of meta || digests
//
// Each array is a run of fixed-width little-endian records (recordSize);
// the offset arrays hold each transfer's end offset into the dep or
// path-hop array, and path hops are the resolved routes (PathOf), so
// every path of a loaded schedule is pinned. A chunk is chunkRecords
// whole records of one array. The root pins the meta block and every
// digest, each digest pins its chunk, and the exact size pins every
// length, so a flipped bit anywhere fails the load. The root comes last,
// so the writer streams in one pass.
//
// A load preads the meta block, the digests and the root, verifies the
// root, sizes every arena from the meta counts, and fans the chunks out
// over Workers goroutines: each a pread, a digest check and a decode
// into a disjoint range of the arenas, so the decoded schedule is
// byte-identical at any worker count. The checks that span chunks
// (offsets across chunk edges, distinct links used, coverage) run after
// the join.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync/atomic"
	"time"

	"multitree/internal/obs"
	"multitree/internal/topology"
)

// The arrays, in file order.
const (
	arrFlows = iota
	arrTransfers
	arrDepOffs
	arrDeps
	arrPathOffs
	arrPaths
	numArrays
)

// recordSize is each array's record width in bytes: a flow is its offset
// and length (u64 each); a transfer is src and dst (u32), op (u8), flow
// and step (u32); an offset, dep or path hop is one u32.
var recordSize = [numArrays]int64{16, 17, 4, 4, 4, 4}

// chunkRecords is the number of records one digest covers. It is a
// format constant, since it fixes the digest count: a chunk is 256 KiB
// to 1.1 MiB, enough grain to keep 8 workers busy on a mesh-32x32 plan
// and few enough digests (~2,800 at mesh-64x64) to read in one pread.
const chunkRecords = 1 << 16

// metaHead is the fixed-width part of the meta block; the algorithm and
// fingerprint bytes follow it.
type metaHead struct {
	AlgorithmLen, FingerprintLen uint32
	Elems, Steps                 int64
	Sum                          summary
	Flows                        int64
}

var metaHeadSize = int64(binary.Size(metaHead{}))

// maxStringLen bounds the algorithm and fingerprint strings, both short.
const maxStringLen = 1 << 16

// arrayCounts returns each array's record count.
func arrayCounts(flows int64, sum *summary) [numArrays]int64 {
	return [numArrays]int64{flows, sum.Transfers, sum.Transfers, sum.DepEdges, sum.Transfers, sum.PathHops}
}

// fileSize is the exact size of a file with the given meta block length
// and array counts.
func fileSize(metaLen int64, counts [numArrays]int64) int64 {
	n := int64(headerLen) + metaLen + hashSize
	for a, c := range counts {
		n += c*recordSize[a] + hashSize*((c+chunkRecords-1)/chunkRecords)
	}
	return n
}

// chunk is one digest unit: records [lo, hi) of array arr, starting at
// byte off of the file.
type chunk struct {
	arr, lo, hi int
	off         int64
}

// layout lists the chunks of arrays with the given counts in file order.
func layout(metaLen int64, counts [numArrays]int64) []chunk {
	var cs []chunk
	off := int64(headerLen) + metaLen
	for a, n := range counts {
		for lo := 0; lo < int(n); lo += chunkRecords {
			hi := min(lo+chunkRecords, int(n))
			cs = append(cs, chunk{arr: a, lo: lo, hi: hi, off: off})
			off += int64(hi-lo) * recordSize[a]
		}
	}
	return cs
}

func (c *chunk) bytes() int64 { return int64(c.hi-c.lo) * recordSize[c.arr] }

// encodeMeta renders the meta block.
func encodeMeta(s *Schedule, sum summary) []byte {
	fp := TopologyFingerprint(s.Topo)
	var b bytes.Buffer
	binary.Write(&b, binary.LittleEndian, &metaHead{
		AlgorithmLen:   uint32(len(s.Algorithm)),
		FingerprintLen: uint32(len(fp)),
		Elems:          int64(s.Elems),
		Steps:          int64(s.Steps),
		Sum:            sum,
		Flows:          int64(len(s.Flows)),
	})
	b.WriteString(s.Algorithm)
	b.WriteString(fp)
	return b.Bytes()
}

// writeBinary streams the file: header and meta, each chunk as it is
// encoded and digested, then the digests and the root. The dep arena and
// offsets are written as they are; the path arrays are the resolved
// routes, so a cursor carries the path-hop position across chunks.
func writeBinary(w io.Writer, s *Schedule, sum summary) error {
	le := binary.LittleEndian
	meta := encodeMeta(s, sum)
	if _, err := w.Write(append(bytes.Clone(binaryHeader), meta...)); err != nil {
		return err
	}
	chunks := layout(int64(len(meta)), arrayCounts(int64(len(s.Flows)), &sum))
	digests := make([]byte, 0, hashSize*len(chunks))
	var (
		buf     []byte
		pathEnd uint32
		next    int // next transfer whose resolved path is unwritten
		rest    []topology.LinkID
	)
	for k := range chunks {
		c := &chunks[k]
		if n := c.bytes(); n > int64(cap(buf)) {
			buf = make([]byte, n)
		}
		b := buf[:c.bytes()]
		switch c.arr {
		case arrFlows:
			for i, r := range s.Flows[c.lo:c.hi] {
				le.PutUint64(b[16*i:], uint64(r.Off))
				le.PutUint64(b[16*i+8:], uint64(r.Len))
			}
		case arrTransfers:
			for i, t := range s.Transfers[c.lo:c.hi] {
				r := b[17*i : 17*i+17]
				le.PutUint32(r, uint32(t.Src))
				le.PutUint32(r[4:], uint32(t.Dst))
				r[8] = byte(t.Op)
				le.PutUint32(r[9:], uint32(t.Flow))
				le.PutUint32(r[13:], uint32(t.Step))
			}
		case arrDepOffs:
			putUint32s(b, s.depOff[c.lo+1:c.hi+1])
		case arrDeps:
			putUint32s(b, s.deps[c.lo:c.hi])
		case arrPathOffs:
			for i := c.lo; i < c.hi; i++ {
				pathEnd += uint32(len(s.PathOf(i)))
				le.PutUint32(b[4*(i-c.lo):], pathEnd)
			}
		case arrPaths:
			for p := b; len(p) > 0; {
				for ; len(rest) == 0; next++ {
					rest = s.PathOf(next)
				}
				k := min(len(rest), len(p)/4)
				putUint32s(p, rest[:k])
				p, rest = p[4*k:], rest[k:]
			}
		}
		d := sha256.Sum256(b)
		digests = append(digests, d[:]...)
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	root := sha256.New()
	root.Write(meta)
	root.Write(digests)
	if _, err := w.Write(digests); err != nil {
		return err
	}
	_, err := w.Write(root.Sum(nil))
	return err
}

func putUint32s[T ~int32](b []byte, vs []T) {
	for i, v := range vs {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
	}
}

// loader carries the shared state of one import: read and bound the
// meta block, verify the root over meta and digests, size every arena
// from the counts, then fan the chunks out across opts.Workers.
type loader struct {
	ra   io.ReaderAt
	size int64
	topo *topology.Topology
	opts BinaryImportOptions

	// skipDigests skips the root and chunk digest comparisons, so that
	// fuzzing reaches the record checks behind them. Tests only.
	skipDigests bool

	s       *Schedule
	head    metaHead
	metaLen int64
	chunks  []chunk
	digests []byte

	bitmaps []linkBitmap // per worker

	decodeNs, verifyNs atomic.Int64
}

func badSchedule(format string, args ...any) error {
	return fmt.Errorf("collective: bad binary schedule: "+format, args...)
}

func (ld *loader) readAt(p []byte, off int64) error {
	if n, err := ld.ra.ReadAt(p, off); n < len(p) {
		return badSchedule("truncated stream: %w", err)
	}
	return nil
}

func (ld *loader) load() (*Schedule, error) {
	t0 := time.Now()
	head, err := ld.readHeader()
	if err != nil {
		return nil, err
	}
	if err := ld.parseMeta(head); err != nil {
		return nil, err
	}
	if err := ld.verifyRoot(head); err != nil {
		return nil, err
	}
	ld.verifyNs.Add(time.Since(t0).Nanoseconds())

	o := ld.opts.Observer
	if o != nil {
		o.PhaseStart(obs.PhaseDecode)
	}
	err = ld.decodeAll()
	if o != nil {
		o.PhaseEnd(obs.PhaseDecode, obs.PlanCounters{
			Transfers:   ld.head.Sum.Transfers,
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
		c := obs.PlanCounters{Transfers: ld.head.Sum.Transfers, VerifyNanos: ld.verifyNs.Load()}
		if err == nil {
			c.SummaryValidations = 1
		}
		o.PhaseEnd(obs.PhaseValidate, c)
	}
	if err == nil && ld.opts.VerifyFull {
		err = verifyFull(ld.s, &ld.head.Sum, o)
	}
	if err != nil {
		return nil, err
	}
	return ld.s, nil
}

// readHeader checks the magic and version and returns the fixed-width
// meta head that follows them.
func (ld *loader) readHeader() ([]byte, error) {
	head := make([]byte, min(max(ld.size, 0), int64(headerLen)+metaHeadSize))
	if err := ld.readAt(head, 0); err != nil {
		return nil, err
	}
	if !bytes.HasPrefix(head, []byte(binaryMagic)) {
		return nil, fmt.Errorf("collective: not a binary schedule file")
	}
	if !bytes.HasPrefix(head, binaryHeader) {
		// Read the field as the uvarint earlier versions wrote, so the
		// refusal can name any version.
		switch v, n := binary.Uvarint(head[len(binaryMagic):]); {
		case n <= 0:
			return nil, badSchedule("unreadable version field")
		case v != BinaryIRVersion:
			return nil, fmt.Errorf("collective: binary schedule version %d is not supported (current is %d); re-export it", v, BinaryIRVersion)
		}
		// The current version spelled in more than one byte.
		return nil, badSchedule("non-canonical version field")
	}
	return head[headerLen:], nil
}

// parseMeta decodes the meta head, bounds every count, and requires the
// file to be exactly as long as the counts say — before anything is
// allocated from them.
func (ld *loader) parseMeta(head []byte) error {
	h := &ld.head
	if err := binary.Read(bytes.NewReader(head), binary.LittleEndian, h); err != nil {
		return badSchedule("meta block: %w", err)
	}
	for _, f := range []struct {
		what           string
		v, least, most int64
	}{
		{"algorithm length", int64(h.AlgorithmLen), 0, maxStringLen},
		{"fingerprint length", int64(h.FingerprintLen), 0, maxStringLen},
		{"elems", h.Elems, 1, 1 << 56},
		{"steps", h.Steps, 0, 1 << 56},
		{"transfer", h.Sum.Transfers, 0, maxArena},
		{"dep", h.Sum.DepEdges, 0, maxArena},
		{"path hop", h.Sum.PathHops, 0, maxArena},
		{"link", h.Sum.LinksUsed, 0, 1 << 40},
		{"covered elem", h.Sum.CoveredElems, 0, 1 << 56},
		{"flow", h.Flows, 0, maxArena},
	} {
		if f.v < f.least || f.v > f.most {
			return badSchedule("%s count %d outside [%d,%d]", f.what, f.v, f.least, f.most)
		}
	}
	ld.metaLen = metaHeadSize + int64(h.AlgorithmLen) + int64(h.FingerprintLen)
	counts := arrayCounts(h.Flows, &h.Sum)
	if want := fileSize(ld.metaLen, counts); want != ld.size {
		return badSchedule("summary claims %d transfers/%d flows/%d deps/%d hops, a %d-byte file; have %d bytes",
			h.Sum.Transfers, h.Flows, h.Sum.DepEdges, h.Sum.PathHops, want, ld.size)
	}
	ld.chunks = layout(ld.metaLen, counts)
	ld.s = &Schedule{
		Topo:      ld.topo,
		Elems:     int(h.Elems),
		Steps:     int(h.Steps),
		Flows:     make([]Range, h.Flows),
		Transfers: make([]Transfer, h.Sum.Transfers),
		depOff:    make([]int32, h.Sum.Transfers+1),
		pathOff:   make([]int32, h.Sum.Transfers+1),
		deps:      make([]TransferID, h.Sum.DepEdges),
		paths:     make([]topology.LinkID, h.Sum.PathHops),
	}
	return nil
}

// verifyRoot reads the strings, the digests and the root, checks the
// root over meta || digests, and then the fingerprint against the live
// topology.
func (ld *loader) verifyRoot(head []byte) error {
	meta := make([]byte, ld.metaLen)
	copy(meta, head)
	if err := ld.readAt(meta[metaHeadSize:], int64(headerLen)+metaHeadSize); err != nil {
		return err
	}
	tail := make([]byte, hashSize*(len(ld.chunks)+1))
	if err := ld.readAt(tail, ld.size-int64(len(tail))); err != nil {
		return err
	}
	ld.digests = tail[:len(tail)-hashSize]
	h := sha256.New()
	h.Write(meta)
	h.Write(ld.digests)
	if !ld.skipDigests && !bytes.Equal(h.Sum(nil), tail[len(ld.digests):]) {
		return badSchedule("content hash mismatch (corrupt or tampered entry)")
	}
	strs := meta[metaHeadSize:]
	ld.s.Algorithm = string(strs[:ld.head.AlgorithmLen])
	fingerprint := string(strs[ld.head.AlgorithmLen:])
	if got := TopologyFingerprint(ld.topo); got != fingerprint {
		return fmt.Errorf("collective: topology %s does not match binary schedule (fingerprint %s, file has %s)",
			ld.topo.Name(), got, fingerprint)
	}
	return nil
}

// decodeAll fans the chunks out across the workers, then merges their
// results deterministically: the lowest-indexed chunk's error wins
// regardless of scheduling. It finishes with the offset checks that
// span chunk edges.
func (ld *loader) decodeAll() error {
	workers := max(min(ld.opts.Workers, len(ld.chunks)), 1)
	errs := make([]error, len(ld.chunks))
	bufs := make([][]byte, workers)
	ld.bitmaps = make([]linkBitmap, workers)
	for w := range ld.bitmaps {
		ld.bitmaps[w] = newLinkBitmap(len(ld.topo.Links()))
	}
	runTreeTasks(workers, len(ld.chunks), func(w, i int) {
		errs[i] = ld.decodeChunk(w, i, &bufs[w])
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("%w (chunk %d)", err, i)
		}
	}
	if err := checkOffsets("dep", ld.s.depOff, ld.head.Sum.DepEdges); err != nil {
		return err
	}
	return checkOffsets("path", ld.s.pathOff, ld.head.Sum.PathHops)
}

// checkOffsets finishes what decodeOffsets checked inside each chunk:
// no offset regresses across a chunk edge, and the last one ends its
// array exactly.
func checkOffsets(what string, off []int32, total int64) error {
	n := len(off) - 1
	for lo := 0; lo < n; lo += chunkRecords {
		if off[lo+1] < off[lo] {
			return badSchedule("%s offsets regress at transfer %d", what, lo)
		}
	}
	if int64(off[n]) != total {
		return badSchedule("%s offsets end at %d, array has %d", what, off[n], total)
	}
	return nil
}

// decodeChunk reads, verifies and decodes one chunk into its disjoint
// region of the arenas. buf is the worker's reusable read buffer.
func (ld *loader) decodeChunk(w, i int, buf *[]byte) error {
	c := &ld.chunks[i]
	if n := c.bytes(); n > int64(cap(*buf)) {
		*buf = make([]byte, n)
	}
	b := (*buf)[:c.bytes()]
	t0 := time.Now()
	if err := ld.readAt(b, c.off); err != nil {
		return err
	}
	t1 := time.Now()
	d := sha256.Sum256(b)
	t2 := time.Now()
	ld.verifyNs.Add(t2.Sub(t1).Nanoseconds())
	if !ld.skipDigests && !bytes.Equal(d[:], ld.digests[hashSize*i:hashSize*(i+1)]) {
		return badSchedule("content hash mismatch (corrupt or tampered entry)")
	}
	err := ld.decode(c, b, w)
	ld.decodeNs.Add(t1.Sub(t0).Nanoseconds() + time.Since(t2).Nanoseconds())
	return err
}

func (ld *loader) decode(c *chunk, b []byte, w int) error {
	le := binary.LittleEndian
	s, lo, hi := ld.s, c.lo, c.hi
	switch c.arr {
	case arrFlows:
		elems := uint64(s.Elems)
		for j := lo; j < hi; j++ {
			r := b[16*(j-lo):]
			off, n := le.Uint64(r), le.Uint64(r[8:])
			if off > elems || n > elems-off {
				return fmt.Errorf("collective: flow %d: range [%d,+%d) outside gradient [0,%d)", j, off, n, elems)
			}
			s.Flows[j] = Range{Off: int(off), Len: int(n)}
		}
	case arrTransfers:
		nodes, nf := uint32(ld.topo.Nodes()), uint32(len(s.Flows))
		steps := uint32(min(s.Steps, math.MaxInt32))
		for j := lo; j < hi; j++ {
			r := b[17*(j-lo) : 17*(j-lo)+17]
			src, dst, op := le.Uint32(r), le.Uint32(r[4:]), Op(r[8])
			flow, step := le.Uint32(r[9:]), le.Uint32(r[13:])
			if src >= nodes || dst >= nodes {
				return fmt.Errorf("collective: transfer %d: endpoint out of range (%d->%d)", j, src, dst)
			}
			if op != Reduce && op != Gather {
				return fmt.Errorf("collective: transfer %d has unknown op %d", j, op)
			}
			if flow >= nf {
				return fmt.Errorf("collective: transfer %d: flow %d out of range", j, flow)
			}
			if step > steps {
				return fmt.Errorf("collective: transfer %d: step %d out of range", j, step)
			}
			s.Transfers[j] = Transfer{Src: topology.NodeID(src), Dst: topology.NodeID(dst), Op: op, Flow: int32(flow), Step: int32(step)}
		}
	case arrDepOffs:
		return decodeOffsets("dep", s.depOff, b, lo, hi, ld.head.Sum.DepEdges)
	case arrPathOffs:
		return decodeOffsets("path", s.pathOff, b, lo, hi, ld.head.Sum.PathHops)
	case arrDeps:
		nt := uint32(ld.head.Sum.Transfers)
		for j := lo; j < hi; j++ {
			v := le.Uint32(b[4*(j-lo):])
			if v >= nt {
				return fmt.Errorf("collective: dep %d out of range", v)
			}
			s.deps[j] = TransferID(v)
		}
	case arrPaths:
		links, bm := uint32(len(ld.topo.Links())), ld.bitmaps[w]
		for j := lo; j < hi; j++ {
			v := le.Uint32(b[4*(j-lo):])
			if v >= links {
				return fmt.Errorf("collective: path link %d out of range", v)
			}
			s.paths[j] = topology.LinkID(v)
			bm.add(topology.LinkID(v))
		}
	}
	return nil
}

// decodeOffsets decodes the end offsets of transfers [lo, hi) into
// off[lo+1:hi+1]. Each is at most total and none regresses within the
// chunk; checkOffsets covers the chunk's first entry after the join.
func decodeOffsets(what string, off []int32, b []byte, lo, hi int, total int64) error {
	for j := lo; j < hi; j++ {
		v := int64(binary.LittleEndian.Uint32(b[4*(j-lo):]))
		if v > total {
			return badSchedule("%s offset %d of transfer %d past the %d-entry array", what, v, j, total)
		}
		if j > lo && int32(v) < off[j] {
			return badSchedule("%s offsets regress at transfer %d", what, j)
		}
		off[j+1] = int32(v)
	}
	return nil
}

// crossCheck is the post-join summary validation: the per-worker link
// bitmaps union to the summary's distinct-link count, and coverage
// matches. The counts need no check here: the exact file size fixes
// them, and the step bound is checked per transfer.
func (ld *loader) crossCheck() error {
	used := ld.bitmaps[0]
	for _, bm := range ld.bitmaps[1:] {
		for w, word := range bm {
			used[w] |= word
		}
	}
	if linksUsed := used.count(); linksUsed != ld.head.Sum.LinksUsed {
		return badSchedule("summary claims %d links used, stream has %d", ld.head.Sum.LinksUsed, linksUsed)
	}
	if len(ld.s.Transfers) > 0 && ld.head.Sum.CoveredElems != int64(ld.s.Elems) {
		return badSchedule("summary covers %d of %d elements", ld.head.Sum.CoveredElems, ld.s.Elems)
	}
	return nil
}
