package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"multitree/internal/collective"
	"multitree/internal/core"
	"multitree/internal/topology"
	"multitree/internal/topospec"
)

// collectiveDigests pins the §VII-B collectives byte for byte: sha256 of
// the exported JSON IR of every reduce-scatter, all-gather, all-to-all
// and subset all-reduce below, under both the zero Options and
// DefaultOptions (Auto on the switch fabrics). The subset member sets are
// those of subset_test.go and TestNodeFailureSubset, plus every third
// node of mesh-8x8.
var collectiveDigests = map[string]string{
	"rs/torus-4x4/zero":             "4d4122090ff060efb5e94d79c00a1a6facfb5930b32a75741590095a0351ea10",
	"rs/torus-4x4/default":          "4d4122090ff060efb5e94d79c00a1a6facfb5930b32a75741590095a0351ea10",
	"ag/torus-4x4/zero":             "3c515b0ff678f2dd0f5dd555a8570fb83e8a5583e474acd1ee2c87912b007182",
	"ag/torus-4x4/default":          "3c515b0ff678f2dd0f5dd555a8570fb83e8a5583e474acd1ee2c87912b007182",
	"a2a/torus-4x4/zero":            "9b042a935189e5803ab9d2f5c47977c0d0284b09c971999e46be621e9aca9d2e",
	"a2a/torus-4x4/default":         "9b042a935189e5803ab9d2f5c47977c0d0284b09c971999e46be621e9aca9d2e",
	"rs/mesh-4x4/zero":              "e57d73d52e1281f49b5cd0e8c79475d874acea70402236c285414f441cef7d91",
	"rs/mesh-4x4/default":           "e57d73d52e1281f49b5cd0e8c79475d874acea70402236c285414f441cef7d91",
	"ag/mesh-4x4/zero":              "f06785d72bc77ec38dd4e8f5b1aaab3f1ab49b2719cd63a0c2f80dc33b030e92",
	"ag/mesh-4x4/default":           "f06785d72bc77ec38dd4e8f5b1aaab3f1ab49b2719cd63a0c2f80dc33b030e92",
	"a2a/mesh-4x4/zero":             "95d3863068c68021c664143ca7cabaeaee76309174782b40037a8d1154989143",
	"a2a/mesh-4x4/default":          "95d3863068c68021c664143ca7cabaeaee76309174782b40037a8d1154989143",
	"rs/fattree-16/zero":            "4ab9e87a90fa5991b8bc87ee3ad97f17948bcccf898b4bf92bb48642eba099b3",
	"rs/fattree-16/default":         "4ab9e87a90fa5991b8bc87ee3ad97f17948bcccf898b4bf92bb48642eba099b3",
	"ag/fattree-16/zero":            "22d5a7030d744c0eafcd88a983fcc049a759a9aaf259f8e99881e87d97913078",
	"ag/fattree-16/default":         "22d5a7030d744c0eafcd88a983fcc049a759a9aaf259f8e99881e87d97913078",
	"a2a/fattree-16/zero":           "4d0db7a241bc8111967cea7ec1396b3442491a448ba6318312e917551b26a818",
	"a2a/fattree-16/default":        "4d0db7a241bc8111967cea7ec1396b3442491a448ba6318312e917551b26a818",
	"rs/bigraph-32/zero":            "7a2789e6a26af7cdddc5cbc9b173eb1aaf806690290d45c45e3b051ea5a0e490",
	"rs/bigraph-32/default":         "5b2ebfab53aeea31b374834d8853ceaf69865b7acca230e034559b186eaf5c00",
	"ag/bigraph-32/zero":            "f57865faf27402b4d6520f084763e4614dce18cc07f36761b9b20f5acc1dbd2e",
	"ag/bigraph-32/default":         "961052a4ebb497bbde5f7e0c6f3b0dd8494367fdf4642527566626d6cd193550",
	"a2a/bigraph-32/zero":           "68c4f5bfdfaf7b3fd3a839c88b89e4c0efed495088d10b9ce3d48ed9a4379929",
	"a2a/bigraph-32/default":        "129d5870408a10057e311ba3f62316fe22d9debc90297e977803cb9c792b2058",
	"subset/checkerboard/zero":      "6564e3b8f337c0030ac57fd8c482001e8791cc0b292069019ab92ee30196845d",
	"subset/checkerboard/default":   "6564e3b8f337c0030ac57fd8c482001e8791cc0b292069019ab92ee30196845d",
	"subset/six/zero":               "ee0c2a901ff4640d1a1c330f6450c399dc510fe04d0b94df0f05eb32bbf1dd4c",
	"subset/six/default":            "ee0c2a901ff4640d1a1c330f6450c399dc510fe04d0b94df0f05eb32bbf1dd4c",
	"subset/fattree/zero":           "e6942d95a45d19bcfcf9bb0eb13e0102e6d1ecef6557ddf15c56594fe2655dba",
	"subset/fattree/default":        "e6942d95a45d19bcfcf9bb0eb13e0102e6d1ecef6557ddf15c56594fe2655dba",
	"subset/corners/zero":           "4270bbd520c08c7cee41234715980607bef0c6c1c7f1c71bd9a33f7ce7491ecf",
	"subset/corners/default":        "4270bbd520c08c7cee41234715980607bef0c6c1c7f1c71bd9a33f7ce7491ecf",
	"subset/survivors/zero":         "bb0d7a56f5cdd51ae5b7868e0a7cb91e67374d0b142ef24546d53425b7b65a2c",
	"subset/survivors/default":      "bb0d7a56f5cdd51ae5b7868e0a7cb91e67374d0b142ef24546d53425b7b65a2c",
	"subset/full/zero":              "f7e84afe219d453757747ed7929d69b98325f9fa9e1c2f7a87d6c687b51178ab",
	"subset/full/default":           "f7e84afe219d453757747ed7929d69b98325f9fa9e1c2f7a87d6c687b51178ab",
	"subset/mesh-8x8-third/zero":    "e5362bb8a12c8f87ca8b32fcfa71efab216b99a55e4797397ccb73233295c73f",
	"subset/mesh-8x8-third/default": "e5362bb8a12c8f87ca8b32fcfa71efab216b99a55e4797397ccb73233295c73f",
}

// subsetCases are the member sets the subset digests cover.
var subsetCases = []struct {
	name, spec string
	members    func(n int) []topology.NodeID
}{
	{"checkerboard", "torus-4x4", every(2)},
	{"six", "torus-4x4", ids(0, 3, 5, 10, 12, 15)},
	{"fattree", "fattree-16", ids(1, 2, 6, 9, 13, 14)},
	{"corners", "mesh-4x4", ids(0, 15)},
	{"survivors", "torus-4x4", func(n int) []topology.NodeID {
		var out []topology.NodeID
		for v := 0; v < n; v++ {
			if v != 5 {
				out = append(out, topology.NodeID(v))
			}
		}
		return out
	}},
	{"full", "torus-4x4", every(1)},
	{"mesh-8x8-third", "mesh-8x8", every(3)},
}

func every(stride int) func(int) []topology.NodeID {
	return func(n int) []topology.NodeID {
		var out []topology.NodeID
		for v := 0; v < n; v += stride {
			out = append(out, topology.NodeID(v))
		}
		return out
	}
}

func ids(v ...topology.NodeID) func(int) []topology.NodeID {
	return func(int) []topology.NodeID { return v }
}

// TestCollectiveDigests builds every case and compares the sha256 of its
// exported IR against collectiveDigests.
func TestCollectiveDigests(t *testing.T) {
	optionSets := []struct {
		name string
		of   func(*topology.Topology) core.Options
	}{
		{"zero", func(*topology.Topology) core.Options { return core.Options{} }},
		{"default", core.DefaultOptions},
	}
	builders := []struct {
		name  string
		elems int
		build func(*topology.Topology, int, core.Options) (*collective.Schedule, error)
	}{
		{"rs", 1000, core.BuildReduceScatter},
		{"ag", 1000, core.BuildAllGather},
		{"a2a", 8, core.BuildAllToAll},
	}
	seen := 0
	check := func(t *testing.T, key string, s *collective.Schedule) {
		t.Helper()
		seen++
		var buf bytes.Buffer
		if err := collective.Export(&buf, s); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		want, ok := collectiveDigests[key]
		if !ok {
			t.Fatalf("%s: no pinned digest", key)
		}
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: export sha256 = %s, want %s", key, got, want)
		}
	}
	for _, spec := range []string{"torus-4x4", "mesh-4x4", "fattree-16", "bigraph-32"} {
		topo, err := topospec.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range builders {
			for _, o := range optionSets {
				key := fmt.Sprintf("%s/%s/%s", b.name, spec, o.name)
				s, err := b.build(topo, b.elems, o.of(topo))
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				check(t, key, s)
			}
		}
	}
	for _, sc := range subsetCases {
		topo, err := topospec.Parse(sc.spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range optionSets {
			key := fmt.Sprintf("subset/%s/%s", sc.name, o.name)
			s, err := core.BuildSubset(topo, sc.members(topo.Nodes()), 1000, o.of(topo))
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			check(t, key, s)
		}
	}
	if seen != len(collectiveDigests) {
		t.Errorf("checked %d cases, %d digests pinned", seen, len(collectiveDigests))
	}
}
