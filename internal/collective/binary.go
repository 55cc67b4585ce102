package collective

// A compact binary rendering of the schedule IR, for the plan cache's
// hot load path. The JSON IR of encoding.go stays the interchange
// format — self-contained, diffable, hand-editable; this encoding trades
// all of that for load speed. It records the topology's fingerprint, not
// its link list, so it loads only onto a live topology that hashes to the
// same value (ImportBinaryInto) — exactly the plan cache's situation.
//
// Validation happens at store time. The exporter runs the full
// ValidateStrict pass once and embeds a summary of what it proved —
// transfer/dependency/path-hop/link counts, the coverage extent, and a
// witness hash of the deterministic topological order — plus sha256
// digests over every byte (sections.go). A load checks the digests, the
// record ranges and the summary's cross-checks in O(bytes) instead of
// re-running Kahn and per-path continuity over millions of transfers;
// BinaryImportOptions.VerifyFull restores the full pass. The cache
// directory was always trusted to hold what the exporter wrote (an
// adversary who can write arbitrary cache files could always substitute
// a different valid schedule); the digests turn silent corruption into
// a rebuild.
//
// Only the current version is read. Files of an earlier version fail
// with an error that asks for a re-export.

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math/bits"

	"multitree/internal/obs"
	"multitree/internal/topology"
)

// BinaryIRVersion is the binary schedule encoding version: version 4 is
// the fixed-width, chunk-digested layout of sections.go. Versions 1 and
// 2 were single varint streams and version 3 a varint-striped sectioned
// layout; none of them is read. A format change makes old cache keys
// unreachable (a cache miss) rather than misread.
const BinaryIRVersion = 4

// binaryMagic brands binary schedule files. Distinct from both JSON
// ('{') and anything a truncated write leaves behind.
const binaryMagic = "MTIR"

// binaryHeader is the prefix of every current file: the magic, then the
// version as one byte. Earlier versions wrote the version as a uvarint,
// which for them is the same single byte.
var binaryHeader = append([]byte(binaryMagic), BinaryIRVersion)

// headerLen is the length of binaryHeader.
const headerLen = len(binaryMagic) + 1

// hashSize is sha256's digest length, the size of the chunk digests, the
// root hash and the topo-order witness hash.
const hashSize = sha256.Size

// summary is the store-time validation record in the meta block: the
// exact arena sizes the decoder preallocates, and the evidence that the
// full ValidateStrict pass ran when the file was written. Its fields are
// fixed-width, so it is written as is.
type summary struct {
	// Transfers/DepEdges/PathHops are the exact entity counts; they fix
	// the array lengths, and the decoder sizes its arenas from them.
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

	// Workers bounds the goroutines the load fans chunk reads, digest
	// checks and decoding across; <= 1 decodes sequentially. The decoded
	// schedule is byte-identical at any worker count.
	Workers int
}

// witnessHash folds a topological order into its sha256 witness.
func witnessHash(order []TransferID) [hashSize]byte {
	h := sha256.New()
	var buf [4096]byte
	for len(order) > 0 {
		k := min(len(order), len(buf)/4)
		putUint32s(buf[:], order[:k])
		h.Write(buf[:4*k])
		order = order[k:]
	}
	var out [hashSize]byte
	h.Sum(out[:0])
	return out
}

// linkBitmap marks the distinct directed links of pinned paths.
type linkBitmap []uint64

func newLinkBitmap(links int) linkBitmap { return make(linkBitmap, (links+63)/64) }

func (b linkBitmap) add(id topology.LinkID) { b[id>>6] |= 1 << (id & 63) }

func (b linkBitmap) count() (n int64) {
	for _, w := range b {
		n += int64(bits.OnesCount64(w))
	}
	return n
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
	sum.LinksUsed = bm.count()
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
// later load trust the result without repeating the pass. The file
// streams to w in one pass, one chunk per Write.
func ExportBinary(w io.Writer, s *Schedule) error {
	order, err := s.validatedOrder(true)
	if err != nil {
		return fmt.Errorf("collective: refusing to export invalid schedule: %w", err)
	}
	return writeBinary(w, s, summarize(s, order))
}

// ImportBinaryInto reads a binary schedule IR of size bytes from r onto
// an existing topology. The load is accepted on the file's stored
// summary and content digests, or, with opts.VerifyFull, on the full
// ValidateStrict pass. The meta counts fix the exact file size, which is
// checked before anything is allocated from them; chunks are then read
// with positioned reads and decoded on up to opts.Workers goroutines.
// An *os.File with its Stat size, or a *bytes.Reader with its Len,
// serves as r.
func ImportBinaryInto(r io.ReaderAt, size int64, topo *topology.Topology, opts BinaryImportOptions) (*Schedule, error) {
	ld := &loader{ra: r, size: size, topo: topo, opts: opts}
	return ld.load()
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
