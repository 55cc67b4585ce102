package topology

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// gridDigest hashes everything a schedule builder can observe of a grid
// fabric: its name, every link, every vertex's out-link preference
// order, the ring embedding, GridDims and the routed path of every
// ordered node pair.
func gridDigest(topo *Topology) string {
	h := sha256.New()
	var buf []byte
	put := func(vs ...int) {
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
	}
	flush := func() {
		h.Write(buf)
		buf = buf[:0]
	}
	h.Write([]byte(topo.Name()))
	put(topo.Nodes(), topo.Switches(), len(topo.Links()))
	for _, l := range topo.Links() {
		put(int(l.ID), l.Src, l.Dst, int(math.Float64bits(l.Bandwidth)), int(l.Latency))
	}
	for v := 0; v < topo.Vertices(); v++ {
		put(-1, v)
		for _, id := range topo.Out(v) {
			put(int(id))
		}
	}
	for _, n := range topo.RingOrder() {
		put(int(n))
	}
	nx, ny := topo.GridDims()
	put(-2, nx, ny)
	flush()
	for s := 0; s < topo.Nodes(); s++ {
		for d := 0; d < topo.Nodes(); d++ {
			path := topo.Route(NodeID(s), NodeID(d))
			put(-3, len(path))
			for _, id := range path {
				put(int(id))
			}
		}
		flush()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestGridFabricsPinned pins the links, preference order, ring order,
// GridDims and all-pairs routes of 2D and 3D meshes and tori, including
// length-2 dimensions (no wrap links) and non-square shapes.
func TestGridFabricsPinned(t *testing.T) {
	lc := LinkConfig{Bandwidth: 16, Latency: 150}
	for _, c := range []struct {
		topo *Topology
		want string
	}{
		{Mesh(2, 2, lc), "1f996196a5ad4886"},
		{Mesh(2, 3, lc), "7067013e81157a1e"},
		{Mesh(3, 2, lc), "756c1505168dcbc4"},
		{Mesh(2, 5, lc), "6368ecee31c21cca"},
		{Mesh(3, 5, lc), "e4fc7ed2643e8fe4"},
		{Mesh(4, 4, lc), "8eec79d9f74db059"},
		{Mesh(4, 8, lc), "f00f7b8bfefe19bb"},
		{Mesh(8, 4, lc), "560ab8588a60b9da"},
		{Mesh(5, 7, lc), "a67e5a9daf63217f"},
		{Mesh(16, 16, lc), "63d280088065bddf"},
		{Torus(2, 2, lc), "96d4c4a467056ff9"},
		{Torus(2, 4, lc), "ee9498029b7cadbb"},
		{Torus(4, 2, lc), "ec242181aa8ac5b0"},
		{Torus(3, 3, lc), "358d310f3bf8939f"},
		{Torus(3, 5, lc), "04d6baa155f01d68"},
		{Torus(4, 4, lc), "60c03f657ce8ecce"},
		{Torus(8, 4, lc), "3e3123bc2f4627fb"},
		{Torus(8, 8, lc), "eb0029e933bd5578"},
		{Torus(5, 7, lc), "7742579af8d038d4"},
		{Torus(16, 16, lc), "6bc5aed8f4ae8505"},
		{Mesh3D(2, 2, 2, lc), "2e25841fbd1628e7"},
		{Mesh3D(2, 3, 4, lc), "0d0e6701526721a6"},
		{Mesh3D(4, 3, 2, lc), "60ee5086cb44de2e"},
		{Mesh3D(3, 3, 3, lc), "79693288b4e3533d"},
		{Mesh3D(4, 4, 4, lc), "b9418902171e3b69"},
		{Torus3D(2, 2, 2, lc), "8372cef1554ec8c3"},
		{Torus3D(2, 3, 4, lc), "74f48b8227a8b9fa"},
		{Torus3D(3, 3, 3, lc), "bfb3e63a49969be8"},
		{Torus3D(4, 4, 2, lc), "aefa42e661c72540"},
		{Torus3D(8, 8, 8, lc), "db534bf366fdf603"},
	} {
		if got := gridDigest(c.topo); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.topo.Name(), got, c.want)
		}
	}
}
