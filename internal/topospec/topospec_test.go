package topospec

import (
	"strings"
	"testing"
)

func TestParseGood(t *testing.T) {
	cases := map[string]struct {
		nodes    int
		switches int
	}{
		"torus-4x4":  {16, 0},
		"torus-8x8":  {64, 0},
		"mesh-4x8":   {32, 0},
		"fattree-16": {16, 8},
		"fattree-64": {64, 16},
		"bigraph-32": {32, 8},
		"bigraph-64": {64, 16},
		// The dashless shorthand.
		"torus4x4":     {16, 0},
		"mesh4x8":      {32, 0},
		"fattree16":    {16, 8},
		"bigraph32":    {32, 8},
		"torus3d2x2x2": {8, 0},
		"mesh3d2x3x4":  {24, 0},
	}
	for spec, want := range cases {
		topo, err := Parse(spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", spec, err)
			continue
		}
		if topo.Nodes() != want.nodes || topo.Switches() != want.switches {
			t.Errorf("Parse(%q) = %d nodes %d switches, want %d/%d",
				spec, topo.Nodes(), topo.Switches(), want.nodes, want.switches)
		}
	}
}

func TestParseBad(t *testing.T) {
	for _, spec := range []string{
		"", "torus", "torus-4", "ring-8", "ring8", "torusx4", "torus3d", "4x4", "mesh-axb", "bigraph-30", "fattree-x",
		// Hostile sizes: overflow, billions of nodes, or quadratic links.
		"fattree-9223372036854775807", "mesh-100000x100000", "mesh100000x100000", "torus-65536x65536",
		"torus3d-4096x4096x4096", "dragonfly-2x100000x100000", "dragonfly-2x32768x1",
		"bigraph-65536",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) did not error", spec)
		}
	}
}

func TestParseDegenerateDims(t *testing.T) {
	// Shapes that are syntactically well formed but describe no usable
	// fabric must be rejected before reaching the constructors.
	for _, spec := range []string{
		"torus-0x4", "torus-1x4", "mesh-4x0", "torus--2x4", "torus-1x1",
		"torus3d-0x4x4", "torus3d-1x4x4", "mesh3d-4x-1x4",
		"dragonfly-0x4x2", "dragonfly-4x2x2", // routers < groups-1
		"fattree-0", "fattree-1", "bigraph-0", "bigraph--8",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) did not error", spec)
		}
	}
}

func TestUsageListsEveryKind(t *testing.T) {
	u := Usage()
	for _, kind := range []string{"torus-", "mesh-", "torus3d-", "mesh3d-", "dragonfly-", "fattree-", "bigraph-"} {
		if !strings.Contains(u, kind) {
			t.Errorf("Usage() omits %q: %s", kind, u)
		}
	}
	if len(Kinds()) != 7 {
		t.Errorf("Kinds() has %d entries", len(Kinds()))
	}
	// The unknown-kind error carries the listing so CLI users see the menu.
	_, err := Parse("ring-8")
	if err == nil || !strings.Contains(err.Error(), "torus-<nx>x<ny>") {
		t.Errorf("unknown-kind error should list known kinds, got: %v", err)
	}
}

func TestTorusFor(t *testing.T) {
	shapes := map[int][2]int{
		16:  {4, 4},
		32:  {8, 4},
		64:  {8, 8},
		128: {16, 8},
		256: {16, 16},
	}
	for n, want := range shapes {
		topo, err := TorusFor(n)
		if err != nil {
			t.Fatalf("TorusFor(%d): %v", n, err)
		}
		nx, ny := topo.GridDims()
		if nx*ny != n || (nx != want[0] && nx != want[1]) {
			t.Errorf("TorusFor(%d) = %dx%d", n, nx, ny)
		}
	}
	if _, err := TorusFor(7); err == nil {
		t.Error("TorusFor(7) did not error (prime)")
	}
}

func TestParseExtendedFabrics(t *testing.T) {
	cases := map[string]int{
		"torus3d-4x4x4":   64,
		"mesh3d-2x3x4":    24,
		"dragonfly-4x4x2": 32,
	}
	for spec, nodes := range cases {
		topo, err := Parse(spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", spec, err)
			continue
		}
		if topo.Nodes() != nodes {
			t.Errorf("Parse(%q) = %d nodes, want %d", spec, topo.Nodes(), nodes)
		}
	}
	for _, bad := range []string{"torus3d-4x4", "dragonfly-4x4", "mesh3d-axbxc"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) did not error", bad)
		}
	}
}

// TestParseGridRanks: the one grid case takes two dimensions for torus
// and mesh and three for torus3d and mesh3d, dashed or dashless, and
// names each fabric in its canonical dashed form.
func TestParseGridRanks(t *testing.T) {
	for _, c := range []struct {
		spec, name string
		nodes      int
	}{
		{"torus-4x4", "torus-4x4", 16},
		{"torus-8x8", "torus-8x8", 64},
		{"torus-2x2", "torus-2x2", 4},
		{"torus4x8", "torus-4x8", 32},
		{"mesh-4x8", "mesh-4x8", 32},
		{"mesh-16x16", "mesh-16x16", 256},
		{"mesh2x3", "mesh-2x3", 6},
		{"torus3d-4x4x4", "torus3d-4x4x4", 64},
		{"torus3d-8x8x8", "torus3d-8x8x8", 512},
		{"torus3d2x2x2", "torus3d-2x2x2", 8},
		{"mesh3d-2x3x4", "mesh3d-2x3x4", 24},
		{"mesh3d4x4x4", "mesh3d-4x4x4", 64},
	} {
		topo, err := Parse(c.spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.spec, err)
			continue
		}
		if topo.Name() != c.name || topo.Nodes() != c.nodes || topo.Switches() != 0 {
			t.Errorf("Parse(%q) = %s with %d nodes %d switches, want %s with %d nodes",
				c.spec, topo.Name(), topo.Nodes(), topo.Switches(), c.name, c.nodes)
		}
	}
	for _, c := range []struct{ spec, want string }{
		{"torus-4x4x4", "needs <nx>x<ny>"},
		{"mesh-2x2x2", "needs <nx>x<ny>"},
		{"torus-4", "needs <nx>x<ny>"},
		{"mesh3d-4x4", "needs <nx>x<ny>x<nz>"},
		{"torus3d-2x2x2x2", "needs <nx>x<ny>x<nz>"},
		{"torus3d4x4", "needs <nx>x<ny>x<nz>"},
		{"torus-4xa", "bad grid size"},
		{"torus3d-4x4x1", "every grid dimension must be >= 2"},
	} {
		if _, err := Parse(c.spec); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) error %v, want one containing %q", c.spec, err, c.want)
		}
	}
}

// FuzzParse feeds arbitrary specs to the parser. It must never panic or
// hang, and every spec it accepts must build a topology within the
// MaxNodes and MaxLinks caps. Seeds live in testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		topo, err := Parse(spec)
		if err != nil {
			return
		}
		if topo.Nodes() > MaxNodes || len(topo.Links()) > MaxLinks {
			t.Fatalf("Parse(%q) = %d nodes, %d links; caps %d, %d",
				spec, topo.Nodes(), len(topo.Links()), MaxNodes, MaxLinks)
		}
	})
}
