package collective

// Internal tests of the binary IR. The tamper tests need files whose
// digests are all consistent but whose content is forged, which only the
// encoder's internals can write, and the summary test reads the summary
// the loader decoded, which only its internals hold.

import (
	"bytes"
	"strings"
	"testing"

	"multitree/internal/topology"
)

// forgedFile writes s through the encoder with every digest consistent,
// after forge has edited the schedule and the summary that its strict
// validation produced.
func forgedFile(t *testing.T, s *Schedule, forge func(*Schedule, *summary)) []byte {
	t.Helper()
	order, err := s.validatedOrder(true)
	if err != nil {
		t.Fatal(err)
	}
	sum := summarize(s, order)
	forge(s, &sum)
	var file bytes.Buffer
	if err := writeBinary(&file, s, sum); err != nil {
		t.Fatal(err)
	}
	return file.Bytes()
}

// twoFlowTorus is a two-tree schedule on a 2x2 torus: a chain from node
// 0 and one from node 1, so it has a flow 1 to forge.
func twoFlowTorus(t *testing.T) (*topology.Topology, *Schedule) {
	t.Helper()
	topo := topology.Torus(2, 2, topology.DefaultLinkConfig())
	second := NewTree(1, 1, 4)
	second.SetEdge(1, 0, 1)
	second.SetEdge(0, 2, 2)
	second.SetEdge(2, 3, 3)
	s, err := TreesToSchedule("unit", topo, 400, []*Tree{chainTree(), second})
	if err != nil {
		t.Fatal(err)
	}
	return topo, s
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
	ld := &loader{ra: bytes.NewReader(file.Bytes()), size: int64(file.Len()), topo: topo}
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
	sum := ld.head.Sum
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
	file := forgedFile(t, s, func(_ *Schedule, sum *summary) { sum.Witness[0] ^= 1 })
	load := func(full bool) error {
		_, err := ImportBinaryInto(bytes.NewReader(file), int64(len(file)), topo, BinaryImportOptions{VerifyFull: full})
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
// the file holds is rejected by the exact-size check before the flow
// table is allocated from the claim.
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
	var file bytes.Buffer
	if err := writeBinary(&file, s, sum); err != nil {
		t.Fatal(err)
	}
	size := int64(file.Len())
	claim := s.WithFlows(s.Elems, make([]Range, 1<<16))
	ld := &loader{topo: topo, size: size}
	if err := ld.parseMeta(encodeMeta(claim, sum)); err == nil || !strings.Contains(err.Error(), "65536 flows") {
		t.Fatalf("parseMeta of a %d-flow claim in a %d-byte file: err = %v, want the claim refused", 1<<16, size, err)
	}
	if ld.s != nil {
		t.Fatal("parseMeta allocated the schedule for a refused claim")
	}
	ld = &loader{topo: topo, size: size}
	if err := ld.parseMeta(encodeMeta(s, sum)); err != nil {
		t.Fatalf("parseMeta of the honest meta block: %v", err)
	}
}

// TestLoadRejectsFlowPastElems: a file whose digests are all consistent
// but whose flow 1 runs past Elems is refused on every load. The summary
// path never looks at flow ranges again, so a load that took the range
// unchecked would leave Execute to slice past the gradient.
func TestLoadRejectsFlowPastElems(t *testing.T) {
	topo, s := twoFlowTorus(t)
	file := forgedFile(t, s, func(s *Schedule, _ *summary) { s.Flows[1] = Range{Off: 4, Len: 1 << 40} })
	for _, opts := range []BinaryImportOptions{{}, {Workers: 8}, {VerifyFull: true}} {
		_, err := ImportBinaryInto(bytes.NewReader(file), int64(len(file)), topo, opts)
		if err == nil || !strings.Contains(err.Error(), "flow 1: range") {
			t.Fatalf("%+v: err = %v, want flow 1 refused", opts, err)
		}
	}
}
