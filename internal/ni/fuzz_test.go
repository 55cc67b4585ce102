package ni_test

import (
	"reflect"
	"testing"

	"multitree/internal/ni"
)

// FuzzUnmarshalTables feeds arbitrary bytes to the table-image decoder.
// It must never panic, must allocate no more than a small multiple of the
// input length (claimed counts are checked against the bytes present),
// and any image it accepts must survive Marshal -> Unmarshal unchanged.
// Seeds live in testdata/fuzz/FuzzUnmarshalTables: a torus-4x4 image, a
// truncated one and a 20-byte image claiming 2^24 entries.
func FuzzUnmarshalTables(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var ts ni.Tables
		var err error
		used := allocBytes(func() { err = ts.UnmarshalBinary(data) })
		// In memory an entry is 80 bytes against 34 on the wire and a
		// table 32 against its 8-byte header.
		if limit := 16*uint64(len(data)) + 1<<20; used > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), used, limit)
		}
		if err != nil {
			return
		}
		blob, err := ts.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted image does not re-marshal: %v", err)
		}
		var back ni.Tables
		if err := back.UnmarshalBinary(blob); err != nil {
			t.Fatalf("re-marshalled image rejected: %v", err)
		}
		if !reflect.DeepEqual(ts, back) {
			t.Fatal("tables changed across Marshal -> Unmarshal")
		}
	})
}
