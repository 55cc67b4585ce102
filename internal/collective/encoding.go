package collective

// The versioned on-disk Schedule IR. Like SCCL/TACCL interchange files,
// an exported schedule is a self-contained artifact: it embeds the
// topology (every directed link with its bandwidth and latency, plus a
// fingerprint), the flow segment table, and the full transfer DAG with
// every link path pinned. Import therefore needs no algorithm code and no
// routing function — an externally synthesized or hand-sketched schedule
// drops into the simulators, the float32 correctness interpreter, and
// (when tree-structured) the NI table compiler exactly like a built-in
// algorithm.

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"multitree/internal/sim"
	"multitree/internal/topology"
	"multitree/internal/topospec"
)

// IRVersion is the current schedule interchange format version. Import
// rejects files with any other version.
const IRVersion = 1

type scheduleJSON struct {
	Version   int            `json:"version"`
	Algorithm string         `json:"algorithm"`
	Elems     int            `json:"elems"`
	Steps     int            `json:"steps"`
	Topology  topoJSON       `json:"topology"`
	Flows     []rangeJSON    `json:"flows"`
	Transfers []transferJSON `json:"transfers"`
}

type topoJSON struct {
	Name        string     `json:"name"`
	Class       string     `json:"class"`
	Nodes       int        `json:"nodes"`
	Switches    int        `json:"switches"`
	Links       []linkJSON `json:"links"`
	Fingerprint string     `json:"fingerprint"`
}

type linkJSON struct {
	Src int `json:"src"`
	Dst int `json:"dst"`
	// Bandwidth is bytes per cycle; Latency is cycles.
	Bandwidth float64 `json:"bw"`
	Latency   uint64  `json:"lat"`
}

type rangeJSON struct {
	Off int `json:"off"`
	Len int `json:"len"`
}

type transferJSON struct {
	Src  int     `json:"src"`
	Dst  int     `json:"dst"`
	Op   string  `json:"op"`
	Flow int     `json:"flow"`
	Step int     `json:"step"`
	Deps []int32 `json:"deps,omitempty"`
	Path []int   `json:"path"`
}

const (
	opReduceJSON = "reduce"
	opGatherJSON = "gather"
)

// TopologyFingerprint returns a stable hash of a topology's structure —
// vertex counts, class, and every directed link's endpoints, bandwidth
// and latency. Two topologies with equal fingerprints are functionally
// interchangeable for schedule execution.
func TopologyFingerprint(t *topology.Topology) string {
	h := sha256.New()
	fmt.Fprintf(h, "nodes=%d switches=%d class=%s\n", t.Nodes(), t.Switches(), t.Class())
	for _, l := range t.Links() {
		fmt.Fprintf(h, "%d>%d bw=%g lat=%d\n", l.Src, l.Dst, l.Bandwidth, uint64(l.Latency))
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

// Export writes the schedule in the versioned JSON IR. Every transfer's
// link path is pinned (resolving the topology's deterministic route when
// the schedule left it implicit), so an importer reproduces the exact
// link-level behavior without the original routing function. Exporting an
// imported schedule reproduces the file byte for byte.
func Export(w io.Writer, s *Schedule) error {
	if err := s.Validate(); err != nil {
		return fmt.Errorf("collective: refusing to export invalid schedule: %w", err)
	}
	topo := s.Topo
	tj := topoJSON{
		Name:        topo.Name(),
		Class:       topo.Class().String(),
		Nodes:       topo.Nodes(),
		Switches:    topo.Switches(),
		Fingerprint: TopologyFingerprint(topo),
	}
	for _, l := range topo.Links() {
		tj.Links = append(tj.Links, linkJSON{
			Src: l.Src, Dst: l.Dst, Bandwidth: l.Bandwidth, Latency: uint64(l.Latency),
		})
	}
	f := scheduleJSON{
		Version:   IRVersion,
		Algorithm: s.Algorithm,
		Elems:     s.Elems,
		Steps:     s.Steps,
		Topology:  tj,
	}
	for _, r := range s.Flows {
		f.Flows = append(f.Flows, rangeJSON{Off: r.Off, Len: r.Len})
	}
	for i := range s.Transfers {
		t := &s.Transfers[i]
		op := opReduceJSON
		if t.Op == Gather {
			op = opGatherJSON
		}
		path := s.PathOf(t)
		pj := make([]int, len(path))
		for h, id := range path {
			pj[h] = int(id)
		}
		var deps []int32
		for _, d := range t.Deps {
			deps = append(deps, int32(d))
		}
		f.Transfers = append(f.Transfers, transferJSON{
			Src: int(t.Src), Dst: int(t.Dst), Op: op,
			Flow: t.Flow, Step: t.Step, Deps: deps, Path: pj,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(&f)
}

// Import reads a schedule IR file and reconstructs it on a topology built
// from the file's embedded link list (IDs, bandwidths and latencies are
// preserved, so pinned paths resolve identically). The load is strict:
// version, topology sanity, fingerprint consistency, DAG acyclicity, link
// existence and flow coverage are all verified before a schedule is
// returned.
func Import(r io.Reader) (*Schedule, error) {
	f, err := decodeIR(r)
	if err != nil {
		return nil, err
	}
	topo, err := rebuildTopology(&f.Topology)
	if err != nil {
		return nil, err
	}
	return assemble(f, topo)
}

// ImportInto reads a schedule IR file onto an existing topology instead
// of reconstructing one. The topology must match the file's fingerprint;
// this keeps native routing metadata (grid shape, ring orders)
// available on the imported schedule's topology.
func ImportInto(r io.Reader, topo *topology.Topology) (*Schedule, error) {
	f, err := decodeIR(r)
	if err != nil {
		return nil, err
	}
	if got := TopologyFingerprint(topo); got != f.Topology.Fingerprint {
		return nil, fmt.Errorf("collective: topology %s does not match schedule file (fingerprint %s, file has %s for %s)",
			topo.Name(), got, f.Topology.Fingerprint, f.Topology.Name)
	}
	return assemble(f, topo)
}

func decodeIR(r io.Reader) (*scheduleJSON, error) {
	br := bufio.NewReader(r)
	if head, _ := br.Peek(len(binaryMagic)); string(head) == binaryMagic {
		return nil, errors.New("collective: file is a binary plan (" + binaryMagic + " header); " +
			"binary plans load only onto a live topology, so importing one needs a JSON export")
	}
	var f scheduleJSON
	dec := json.NewDecoder(br)
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("collective: bad schedule file: %w", err)
	}
	if f.Version != IRVersion {
		return nil, fmt.Errorf("collective: unsupported schedule IR version %d (want %d)", f.Version, IRVersion)
	}
	if f.Elems < 1 {
		return nil, fmt.Errorf("collective: schedule has %d elements", f.Elems)
	}
	return &f, nil
}

// rebuildTopology reconstructs the embedded topology description as a
// custom topology with identical link IDs and parameters, verifying the
// fingerprint the exporter recorded.
func rebuildTopology(tj *topoJSON) (*topology.Topology, error) {
	if tj.Nodes < 1 || tj.Switches < 0 {
		return nil, fmt.Errorf("collective: schedule topology has %d nodes, %d switches", tj.Nodes, tj.Switches)
	}
	// Bound the vertex count before NewCustom allocates per vertex: no
	// topology spec has more than topospec.MaxNodes end nodes, and a
	// connected fabric has a link per vertex beyond the first.
	if tj.Nodes > topospec.MaxNodes || tj.Switches > len(tj.Links)+1-tj.Nodes {
		return nil, fmt.Errorf("collective: schedule topology has %d nodes, %d switches and %d links (at most %d nodes, links+1 vertices)",
			tj.Nodes, tj.Switches, len(tj.Links), topospec.MaxNodes)
	}
	vertices := tj.Nodes + tj.Switches
	cb := topology.NewCustom(tj.Name, tj.Nodes, tj.Switches)
	for i, l := range tj.Links {
		if l.Src < 0 || l.Src >= vertices || l.Dst < 0 || l.Dst >= vertices || l.Src == l.Dst {
			return nil, fmt.Errorf("collective: schedule link %d has bad endpoints %d->%d", i, l.Src, l.Dst)
		}
		if l.Bandwidth <= 0 {
			return nil, fmt.Errorf("collective: schedule link %d has bandwidth %g", i, l.Bandwidth)
		}
		cb.DirectedLink(l.Src, l.Dst, topology.LinkConfig{
			Bandwidth: l.Bandwidth,
			Latency:   sim.Time(l.Latency),
		})
	}
	topo, err := cb.Build()
	if err != nil {
		return nil, fmt.Errorf("collective: schedule topology: %w", err)
	}
	if got := TopologyFingerprint(topo); got != tj.Fingerprint {
		return nil, fmt.Errorf("collective: topology fingerprint mismatch: rebuilt %s, file records %s", got, tj.Fingerprint)
	}
	return topo, nil
}

// assemble turns a decoded IR file plus a resolved topology into a
// validated Schedule.
func assemble(f *scheduleJSON, topo *topology.Topology) (*Schedule, error) {
	s := &Schedule{
		Algorithm: f.Algorithm,
		Topo:      topo,
		Elems:     f.Elems,
		Steps:     f.Steps,
	}
	for _, r := range f.Flows {
		s.Flows = append(s.Flows, Range{Off: r.Off, Len: r.Len})
	}
	maxStep := 0
	for i, tj := range f.Transfers {
		var op Op
		switch tj.Op {
		case opReduceJSON:
			op = Reduce
		case opGatherJSON:
			op = Gather
		default:
			return nil, fmt.Errorf("collective: transfer %d has unknown op %q", i, tj.Op)
		}
		t := Transfer{
			Src: topology.NodeID(tj.Src), Dst: topology.NodeID(tj.Dst),
			Op: op, Flow: tj.Flow, Step: tj.Step,
		}
		for _, d := range tj.Deps {
			t.Deps = append(t.Deps, TransferID(d))
		}
		t.Path = make([]topology.LinkID, len(tj.Path))
		for h, id := range tj.Path {
			t.Path[h] = topology.LinkID(id)
		}
		if t.Step > maxStep {
			maxStep = t.Step
		}
		s.Transfers = append(s.Transfers, t)
	}
	if s.Steps < maxStep {
		return nil, fmt.Errorf("collective: schedule claims %d steps but has a transfer at step %d", s.Steps, maxStep)
	}
	if err := s.ValidateStrict(); err != nil {
		return nil, fmt.Errorf("collective: schedule file failed validation: %w", err)
	}
	return s, nil
}
