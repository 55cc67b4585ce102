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
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

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

// scheduleFile is the import view of scheduleJSON. Links and transfers
// stay raw until what they index is known, then stream one element at a
// time into the topology builder and the schedule's arenas, each
// checked as it arrives. An import thus allocates in proportion to the
// elements it accepts, not to every element the file spells out.
type scheduleFile struct {
	Version   int             `json:"version"`
	Algorithm string          `json:"algorithm"`
	Elems     int             `json:"elems"`
	Steps     int             `json:"steps"`
	Topology  topoFile        `json:"topology"`
	Flows     []rangeJSON     `json:"flows"`
	Transfers json.RawMessage `json:"transfers"`
}

// topoFile is the import view of topoJSON.
type topoFile struct {
	Name        string          `json:"name"`
	Nodes       int             `json:"nodes"`
	Switches    int             `json:"switches"`
	Links       json.RawMessage `json:"links"`
	Fingerprint string          `json:"fingerprint"`
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
		path := s.PathOf(i)
		pj := make([]int, len(path))
		for h, id := range path {
			pj[h] = int(id)
		}
		var deps []int32
		for _, d := range s.Deps(i) {
			deps = append(deps, int32(d))
		}
		f.Transfers = append(f.Transfers, transferJSON{
			Src: int(t.Src), Dst: int(t.Dst), Op: op,
			Flow: int(t.Flow), Step: int(t.Step), Deps: deps, Path: pj,
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

func decodeIR(r io.Reader) (*scheduleFile, error) {
	br := bufio.NewReader(r)
	if head, _ := br.Peek(len(binaryMagic)); string(head) == binaryMagic {
		return nil, errors.New("collective: file is a binary plan (" + binaryMagic + " header); " +
			"binary plans load only onto a live topology, so importing one needs a JSON export")
	}
	var f scheduleFile
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
func rebuildTopology(tj *topoFile) (*topology.Topology, error) {
	if tj.Nodes < 1 || tj.Switches < 0 {
		return nil, fmt.Errorf("collective: schedule topology has %d nodes, %d switches", tj.Nodes, tj.Switches)
	}
	var links []linkJSON
	err := streamArray(tj.Links, "links", func(i int, dec *json.Decoder) error {
		var l linkJSON
		if err := dec.Decode(&l); err != nil {
			return fmt.Errorf("collective: bad schedule file: link %d: %w", i, err)
		}
		if l.Src < 0 || l.Dst < 0 || l.Src == l.Dst {
			return fmt.Errorf("collective: schedule link %d has bad endpoints %d->%d", i, l.Src, l.Dst)
		}
		if l.Bandwidth <= 0 {
			return fmt.Errorf("collective: schedule link %d has bandwidth %g", i, l.Bandwidth)
		}
		links = append(links, l)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Bound the vertex count before NewCustom allocates per vertex: no
	// topology spec has more than topospec.MaxNodes end nodes, and a
	// connected fabric has a link per vertex beyond the first.
	if tj.Nodes > topospec.MaxNodes || tj.Switches > len(links)+1-tj.Nodes {
		return nil, fmt.Errorf("collective: schedule topology has %d nodes, %d switches and %d links (at most %d nodes, links+1 vertices)",
			tj.Nodes, tj.Switches, len(links), topospec.MaxNodes)
	}
	vertices := tj.Nodes + tj.Switches
	cb := topology.NewCustom(tj.Name, tj.Nodes, tj.Switches)
	for i, l := range links {
		if l.Src >= vertices || l.Dst >= vertices {
			return nil, fmt.Errorf("collective: schedule link %d has bad endpoints %d->%d", i, l.Src, l.Dst)
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
func assemble(f *scheduleFile, topo *topology.Topology) (*Schedule, error) {
	s := &Schedule{
		Algorithm: f.Algorithm,
		Topo:      topo,
		Elems:     f.Elems,
		Steps:     f.Steps,
		Flows:     make([]Range, len(f.Flows)),
	}
	for i, r := range f.Flows {
		s.Flows[i] = Range{Off: r.Off, Len: r.Len}
	}
	maxStep, err := addTransfers(s, f.Transfers)
	if err != nil {
		return nil, err
	}
	if f.Steps < maxStep {
		return nil, fmt.Errorf("collective: schedule claims %d steps but has a transfer at step %d", f.Steps, maxStep)
	}
	if err := s.ValidateStrict(); err != nil {
		return nil, fmt.Errorf("collective: schedule file failed validation: %w", err)
	}
	return s, nil
}

// streamArray decodes the JSON array raw one element at a time: elem
// reads element i from dec. An absent or null array is empty.
func streamArray(raw json.RawMessage, what string, elem func(i int, dec *json.Decoder) error) error {
	if len(raw) == 0 || string(raw) == "null" {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('[') {
		return fmt.Errorf("collective: bad schedule file: %s is not an array", what)
	}
	for i := 0; dec.More(); i++ {
		if err := elem(i, dec); err != nil {
			return err
		}
	}
	if _, err := dec.Token(); err != nil {
		return fmt.Errorf("collective: bad schedule file: %s: %w", what, err)
	}
	return nil
}

// addTransfers streams the raw transfers array into s and returns the
// largest step. Every field is range-checked as an int before it
// narrows to the transfer's int32 fields, so an out-of-range value is
// rejected rather than wrapped into range.
func addTransfers(s *Schedule, raw json.RawMessage) (int, error) {
	nodes, links := s.Topo.Nodes(), len(s.Topo.Links())
	var tj transferJSON
	var deps []TransferID
	var path []topology.LinkID
	maxStep := 0
	err := streamArray(raw, "transfers", func(i int, dec *json.Decoder) error {
		tj = transferJSON{Deps: tj.Deps[:0], Path: tj.Path[:0]}
		if err := dec.Decode(&tj); err != nil {
			return fmt.Errorf("collective: bad schedule file: transfer %d: %w", i, err)
		}
		var op Op
		switch tj.Op {
		case opReduceJSON:
			op = Reduce
		case opGatherJSON:
			op = Gather
		default:
			return fmt.Errorf("collective: transfer %d has unknown op %q", i, tj.Op)
		}
		if tj.Src < 0 || tj.Src >= nodes || tj.Dst < 0 || tj.Dst >= nodes {
			return fmt.Errorf("collective: transfer %d: endpoint out of range (%d->%d)", i, tj.Src, tj.Dst)
		}
		if tj.Flow < 0 || tj.Flow >= len(s.Flows) {
			return fmt.Errorf("collective: transfer %d: flow %d out of range", i, tj.Flow)
		}
		if tj.Step < 1 || tj.Step > math.MaxInt32 {
			return fmt.Errorf("collective: transfer %d: step %d out of range", i, tj.Step)
		}
		if len(tj.Path) == 0 {
			return fmt.Errorf("collective: transfer %d: pinned path is empty", i)
		}
		if len(s.Transfers) == maxArena || len(tj.Deps) > maxArena-len(s.deps) || len(tj.Path) > maxArena-len(s.paths) {
			return fmt.Errorf("collective: schedule file exceeds %d transfers, deps or path hops", maxArena)
		}
		deps = deps[:0]
		for _, d := range tj.Deps {
			deps = append(deps, TransferID(d))
		}
		path = path[:0]
		for h, id := range tj.Path {
			if id < 0 || id >= links {
				return fmt.Errorf("collective: transfer %d: path hop %d: link %d not in topology (%d links)", i, h, id, links)
			}
			path = append(path, topology.LinkID(id))
		}
		s.Add(Transfer{
			Src: topology.NodeID(tj.Src), Dst: topology.NodeID(tj.Dst),
			Op: op, Flow: int32(tj.Flow), Step: int32(tj.Step),
		}, deps, path)
		maxStep = max(maxStep, tj.Step)
		return nil
	})
	return maxStep, err
}
