package ni

import (
	"encoding/binary"
	"fmt"
	"math"

	"multitree/internal/collective"
	"multitree/internal/topology"
)

// This file implements the deployment path of §V-A: "The schedules are
// computed once during initialization and loaded to network interfaces for
// reuse in the iterative training epochs." Tables serialize to a compact
// little-endian binary image — the bit stream a host driver would DMA
// into the NI's table SRAM — and deserialize back for verification.
//
// Image layout: a 12-byte header (magic, steps, node count as uint32),
// then per node an 8-byte table header (node id, entry count as uint32)
// followed by its entries. Each entry is a fixed 34-byte byte-aligned
// rendition of the ~200-bit entry of §V-A:
//
//	op uint8, pad uint8, flow int16, parent int16, children [4]int16,
//	step uint16, pad uint16, start uint64, size uint64

// tableMagic guards against loading foreign blobs into the NI.
const tableMagic = 0x4D545254 // "MTRT"

const (
	imageHeaderBytes = 12
	tableHeaderBytes = 8
	entryWireBytes   = 34
)

// MarshalBinary encodes all per-node tables. A value that does not fit
// its wire field is an error, never silently truncated.
func (ts *Tables) MarshalBinary() ([]byte, error) {
	size := imageHeaderBytes
	for _, tab := range ts.PerNode {
		size += tableHeaderBytes + entryWireBytes*len(tab.Entries)
	}
	if ts.Steps < 0 || int64(ts.Steps) > math.MaxUint32 {
		return nil, fmt.Errorf("ni: steps %d do not fit the image header", ts.Steps)
	}
	le := binary.LittleEndian
	buf := make([]byte, 0, size)
	buf = le.AppendUint32(buf, tableMagic)
	buf = le.AppendUint32(buf, uint32(ts.Steps))
	buf = le.AppendUint32(buf, uint32(len(ts.PerNode)))
	for _, tab := range ts.PerNode {
		if tab.Node < 0 || int64(tab.Node) > math.MaxUint32 {
			return nil, fmt.Errorf("ni: node id %d does not fit the table header", tab.Node)
		}
		buf = le.AppendUint32(buf, uint32(tab.Node))
		buf = le.AppendUint32(buf, uint32(len(tab.Entries)))
		for i := range tab.Entries {
			e := &tab.Entries[i]
			if err := e.checkWire(); err != nil {
				return nil, fmt.Errorf("ni: node %d entry %d: %w", tab.Node, i, err)
			}
			buf = append(buf, uint8(e.Op), 0)
			buf = le.AppendUint16(buf, uint16(e.FlowID))
			buf = le.AppendUint16(buf, uint16(e.Parent))
			for _, c := range e.Children {
				buf = le.AppendUint16(buf, uint16(c))
			}
			buf = le.AppendUint16(buf, uint16(e.Step))
			buf = le.AppendUint16(buf, 0)
			buf = le.AppendUint64(buf, uint64(e.StartAddr))
			buf = le.AppendUint64(buf, uint64(e.Size))
		}
	}
	return buf, nil
}

// checkWire reports the first field of e that does not fit its wire type.
func (e *Entry) checkWire() error {
	fits16 := func(v int) bool { return v >= math.MinInt16 && v <= math.MaxInt16 }
	switch {
	case !fits16(e.FlowID):
		return fmt.Errorf("flow %d does not fit int16", e.FlowID)
	case !fits16(int(e.Parent)):
		return fmt.Errorf("parent %d does not fit int16", e.Parent)
	case e.Step < 0 || e.Step > math.MaxUint16:
		return fmt.Errorf("step %d does not fit uint16", e.Step)
	case e.StartAddr < 0 || e.Size < 0:
		return fmt.Errorf("negative DMA descriptor (start %d, size %d)", e.StartAddr, e.Size)
	}
	for _, c := range e.Children {
		if !fits16(int(c)) {
			return fmt.Errorf("child %d does not fit int16", c)
		}
	}
	return nil
}

// UnmarshalBinary decodes a table image produced by MarshalBinary. Every
// claimed count is checked against the bytes left before anything is
// allocated for it, and bytes after the last table are an error. On error
// ts is left unchanged.
func (ts *Tables) UnmarshalBinary(data []byte) error {
	le := binary.LittleEndian
	if len(data) < imageHeaderBytes {
		return fmt.Errorf("ni: truncated table image: %d bytes, header needs %d", len(data), imageHeaderBytes)
	}
	if magic := le.Uint32(data); magic != tableMagic {
		return fmt.Errorf("ni: bad table magic %#x", magic)
	}
	steps, nodes := le.Uint32(data[4:]), uint64(le.Uint32(data[8:]))
	rest := data[imageHeaderBytes:]
	if nodes*tableHeaderBytes > uint64(len(rest)) {
		return fmt.Errorf("ni: node count %d needs %d table-header bytes, image has %d",
			nodes, nodes*tableHeaderBytes, len(rest))
	}
	out := Tables{Steps: int(steps), PerNode: make([]Table, nodes)}
	for n := range out.PerNode {
		if len(rest) < tableHeaderBytes {
			return fmt.Errorf("ni: truncated table header for table %d", n)
		}
		node, count := le.Uint32(rest), uint64(le.Uint32(rest[4:]))
		rest = rest[tableHeaderBytes:]
		if count*entryWireBytes > uint64(len(rest)) {
			return fmt.Errorf("ni: truncated entry: table %d claims %d entries (%d bytes), image has %d",
				n, count, count*entryWireBytes, len(rest))
		}
		tab := Table{Node: topology.NodeID(node), Entries: make([]Entry, count)}
		for i := range tab.Entries {
			w := rest[:entryWireBytes]
			rest = rest[entryWireBytes:]
			start, size := le.Uint64(w[18:]), le.Uint64(w[26:])
			if start > math.MaxInt64 || size > math.MaxInt64 {
				return fmt.Errorf("ni: table %d entry %d: DMA descriptor (start %d, size %d) out of range", n, i, start, size)
			}
			e := &tab.Entries[i]
			e.Op = collective.Op(w[0])
			e.FlowID = int(int16(le.Uint16(w[2:])))
			e.Parent = topology.NodeID(int16(le.Uint16(w[4:])))
			for k := range e.Children {
				e.Children[k] = topology.NodeID(int16(le.Uint16(w[6+2*k:])))
			}
			e.Step = int(le.Uint16(w[14:]))
			e.StartAddr, e.Size = int(start), int(size)
		}
		out.PerNode[n] = tab
	}
	if len(rest) != 0 {
		return fmt.Errorf("ni: %d trailing bytes after the last table", len(rest))
	}
	*ts = out
	return nil
}
