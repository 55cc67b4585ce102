package ni_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strings"
	"testing"

	"multitree/internal/algorithms"
	"multitree/internal/collective"
	"multitree/internal/core"
	"multitree/internal/faults"
	"multitree/internal/ni"
	"multitree/internal/topology"
	"multitree/internal/topospec"
)

// tableDigests pins the compiled tables of MultiTree schedules: sha256 of
// tableImage (every field of every row, DMA descriptors included) and of
// the concatenated Table.String renderings. The values
// were recorded at commit 598b097, where tables were still compiled by
// recovering the spanning trees from the schedule and lowering them a
// second time, so they pin the one-pass compiler to that output byte for
// byte.
var tableDigests = []struct {
	name   string
	spec   string
	bytes  int64
	faults string
	viaIR  bool // export to the interchange IR and import back first
	bin    string
	text   string
}{
	{name: "torus-4x4", spec: "torus-4x4", bytes: 64 << 10,
		bin:  "a885da18e7be953b74e912f37f40a1edf0c7363aaab4e5a81be688c49410278a",
		text: "01eee23d4d9a54173d8b94fdaa190f0e9766bf37c57f85f5d9fdc0ea10296117"},
	{name: "mesh-4x4", spec: "mesh-4x4", bytes: 64 << 10,
		bin:  "7a59c38d95b9c158a883904ca5943e340661b58bb3794fcb30ba0b586914e84e",
		text: "096e465beb6e2944aa35f4f2c381143b1826bdcc06499f53932300e225686335"},
	{name: "torus-8x8", spec: "torus-8x8", bytes: 64 << 10,
		bin:  "cdbf2b5f89b5490828366788679ee3c1726b2f4c1a41bfaa7a8722bbd020d8c5",
		text: "a9c75c65179e5e310b34d201bfcb6e3716114a3de77aa7a18341a0f0feeed372"},
	{name: "fattree-16", spec: "fattree-16", bytes: 64 << 10,
		bin:  "5ab4f659263386b546b245fdd1bc399331da48e3d0f971e02b8a0153286d5044",
		text: "7e066827625bd0ee26fb37ce742dec899532232c6e332cb3816a663e9d19cccc"},
	{name: "bigraph-32", spec: "bigraph-32", bytes: 64 << 10,
		bin:  "f6a7f643c610e4310e7359784b3d41fc58a4cafd121cd51a3234c899834cc802",
		text: "584cd1d74e371392e481981d2fb10b476b95c473ac167043f7f51b2daa9110b2"},
	{name: "mesh-16x16", spec: "mesh-16x16", bytes: 1 << 20,
		bin:  "6bf7e974a280fab9103f42225c14868e5b7b25e00bd65409f857e46a080a2901",
		text: "1f267abe60b1c277847071964308a2804554b90a6d72882a6e770b7c28e9bc7a"},
	{name: "torus-4x4-faulted", spec: "torus-4x4", bytes: 64 << 10, faults: "link:3-7:down,link:0-1:bw=0.5",
		bin:  "c3c1a3c6e53f09969c542a201695c0295c67a69d0807a61c61c0b1ebae5b6abb",
		text: "d310fa1b3a2613d715b3ca3483134e82ef15c3dc227e596876993e5402b6e8bf"},
	{name: "torus-4x4-imported", spec: "torus-4x4", bytes: 64 << 10, viaIR: true,
		bin:  "a885da18e7be953b74e912f37f40a1edf0c7363aaab4e5a81be688c49410278a",
		text: "01eee23d4d9a54173d8b94fdaa190f0e9766bf37c57f85f5d9fdc0ea10296117"},
}

// TestCompileScheduleDigests compiles each case and checks both digests,
// then drives the tables through the Fig. 6 machine to a complete
// all-reduce.
func TestCompileScheduleDigests(t *testing.T) {
	for _, tc := range tableDigests {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			s := digestSchedule(t, tc.spec, tc.bytes, tc.faults, tc.viaIR)
			tables, err := ni.CompileSchedule(s)
			if err != nil {
				t.Fatal(err)
			}
			blob := tableImage(tables)
			var text strings.Builder
			for _, tab := range tables.PerNode {
				text.WriteString(tab.String())
			}
			if got := sha256Hex(blob); got != tc.bin {
				t.Errorf("table image sha256 = %s, want %s", got, tc.bin)
			}
			if got := sha256Hex([]byte(text.String())); got != tc.text {
				t.Errorf("Table.String sha256 = %s, want %s", got, tc.text)
			}
			if _, err := ni.NewMachine(tables, len(s.Flows)).Run(); err != nil {
				t.Fatalf("machine run: %v", err)
			}
		})
	}
}

// tableImage renders every field of every row as fixed-width little-endian
// bytes: a 12-byte header (magic "MTRT", steps, node count), per node an
// 8-byte header (node id, entry count), then 34 bytes per entry: op, pad,
// flow, parent, four children, step, pad, DMA start and size. Fields are
// truncated to their width unchecked; the digests only need a stable image.
func tableImage(ts *ni.Tables) []byte {
	le := binary.LittleEndian
	buf := le.AppendUint32(nil, 0x4D545254)
	buf = le.AppendUint32(buf, uint32(ts.Steps))
	buf = le.AppendUint32(buf, uint32(len(ts.PerNode)))
	for _, tab := range ts.PerNode {
		buf = le.AppendUint32(buf, uint32(tab.Node))
		buf = le.AppendUint32(buf, uint32(len(tab.Entries)))
		for _, e := range tab.Entries {
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
	return buf
}

func digestSchedule(t *testing.T, spec string, size int64, faultSpec string, viaIR bool) *collective.Schedule {
	t.Helper()
	topo, err := topospec.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	if faultSpec != "" {
		topo = degrade(t, topo, faultSpec)
	}
	s, err := algorithms.Build(topo, core.Algorithm, int(size/collective.WordSize), algorithms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !viaIR {
		return s
	}
	var buf bytes.Buffer
	if err := collective.Export(&buf, s); err != nil {
		t.Fatal(err)
	}
	imp, err := collective.Import(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return imp
}

func degrade(t *testing.T, topo *topology.Topology, spec string) *topology.Topology {
	t.Helper()
	plan, err := faults.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	deg, err := faults.Apply(topo, plan)
	if err != nil {
		t.Fatal(err)
	}
	return deg.Topo
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// BenchmarkCompileSchedule times the table compile of the MultiTree
// schedule of mesh-16x16 at 1 MiB (256 flows, ~130k transfers), the
// compile on the fabric-mesh16 benchmark path.
func BenchmarkCompileSchedule(b *testing.B) {
	topo, err := topospec.Parse("mesh-16x16")
	if err != nil {
		b.Fatal(err)
	}
	s, err := algorithms.Build(topo, core.Algorithm, (1<<20)/collective.WordSize, algorithms.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ni.CompileSchedule(s); err != nil {
			b.Fatal(err)
		}
	}
}
