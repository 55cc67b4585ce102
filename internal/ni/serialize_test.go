package ni_test

import (
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"multitree/internal/collective"
	"multitree/internal/core"
	"multitree/internal/ni"
	"multitree/internal/topology"
)

// TestTableRoundTrip: tables survive the binary load/store path a host
// driver would use, and the reloaded image still drives a correct
// all-reduce through the Fig. 6 machine.
func TestTableRoundTrip(t *testing.T) {
	topo := topology.Torus(4, 4, topology.DefaultLinkConfig())
	trees, err := core.BuildTrees(topo, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tables := compileTrees(t, topo, trees, 12345)

	blob, err := tables.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var loaded ni.Tables
	if err := loaded.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tables, &loaded) {
		t.Fatal("tables changed across the binary round trip")
	}
	m := ni.NewMachine(&loaded, topo.Nodes())
	if _, err := m.Run(); err != nil {
		t.Fatalf("reloaded tables misbehave: %v", err)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	var ts ni.Tables
	if err := ts.UnmarshalBinary(nil); err == nil {
		t.Error("empty blob accepted")
	}
	if err := ts.UnmarshalBinary([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}); err == nil {
		t.Error("wrong magic accepted")
	}
	// Valid header, truncated body.
	tables := compile(t, topology.Mesh(2, 2, topology.DefaultLinkConfig()))
	blob, err := tables.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.UnmarshalBinary(blob[:len(blob)-5]); err == nil {
		t.Error("truncated blob accepted")
	}
}

// hostileImage is a 20-byte table image whose single table claims 2^24
// entries: a decoder that trusts the count allocates 1.25 GiB for it.
func hostileImage() []byte {
	le := binary.LittleEndian
	b := le.AppendUint32(nil, 0x4D545254) // magic
	b = le.AppendUint32(b, 4)             // steps
	b = le.AppendUint32(b, 1)             // node count
	b = le.AppendUint32(b, 0)             // node id
	return le.AppendUint32(b, 1<<24)      // entry count
}

// allocBytes returns the heap bytes fn allocates.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestUnmarshalChecksCountsBeforeAllocating: claimed node and entry
// counts are checked against the bytes left before any table storage is
// allocated.
func TestUnmarshalChecksCountsBeforeAllocating(t *testing.T) {
	var err error
	got := allocBytes(func() {
		var ts ni.Tables
		err = ts.UnmarshalBinary(hostileImage())
	})
	if err == nil {
		t.Fatal("image claiming 2^24 entries in 20 bytes accepted")
	}
	if got >= 1<<20 {
		t.Errorf("hostile entry count allocated %d bytes before failing, want < 1 MiB", got)
	}
	// A node count the image cannot hold even the table headers for.
	b := hostileImage()[:12]
	binary.LittleEndian.PutUint32(b[8:], 1<<30)
	got = allocBytes(func() {
		var ts ni.Tables
		err = ts.UnmarshalBinary(b)
	})
	if err == nil {
		t.Fatal("image claiming 2^30 tables in 12 bytes accepted")
	}
	if got >= 1<<20 {
		t.Errorf("hostile node count allocated %d bytes before failing, want < 1 MiB", got)
	}
}

// TestUnmarshalRejectsTrailingBytes: an image is exactly its tables.
func TestUnmarshalRejectsTrailingBytes(t *testing.T) {
	blob, err := compile(t, topology.Mesh(2, 2, topology.DefaultLinkConfig())).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var ts ni.Tables
	if err := ts.UnmarshalBinary(append(blob, 0)); err == nil {
		t.Fatal("image with a trailing byte accepted")
	}
}

// TestMarshalRejectsOutOfRangeFields: values wider than their wire field
// are an error instead of wrapping (flow 40000 would come back as -25536,
// step 70000 as 4464).
func TestMarshalRejectsOutOfRangeFields(t *testing.T) {
	row := func() ni.Entry {
		return ni.Entry{Op: collective.Gather, FlowID: 1, Parent: ni.Nil,
			Children: [ni.MaxChildren]topology.NodeID{2, ni.Nil, ni.Nil, ni.Nil}, Step: 3}
	}
	for name, edit := range map[string]func(e *ni.Entry){
		"flow":     func(e *ni.Entry) { e.FlowID = 40000 },
		"step":     func(e *ni.Entry) { e.Step = 70000 },
		"parent":   func(e *ni.Entry) { e.Parent = -40000 },
		"child":    func(e *ni.Entry) { e.Children[3] = 1 << 15 },
		"size":     func(e *ni.Entry) { e.Size = -1 },
		"negative": func(e *ni.Entry) { e.Step = -1 },
	} {
		e := row()
		edit(&e)
		ts := &ni.Tables{Steps: 2, PerNode: []ni.Table{{Node: 0, Entries: []ni.Entry{e}}}}
		if _, err := ts.MarshalBinary(); err == nil {
			t.Errorf("%s: out-of-range entry %+v marshalled", name, e)
		}
	}
	ts := &ni.Tables{Steps: 2, PerNode: []ni.Table{{Node: 0, Entries: []ni.Entry{row()}}}}
	blob, err := ts.MarshalBinary()
	if err != nil {
		t.Fatalf("in-range entry: %v", err)
	}
	var back ni.Tables
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ts, &back) {
		t.Fatalf("round trip: %+v vs %+v", ts, back)
	}
}
