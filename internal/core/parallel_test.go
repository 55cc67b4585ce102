package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"multitree/internal/collective"
	"multitree/internal/faults"
	"multitree/internal/obs"
	"multitree/internal/topology"
)

// TestParallelGrowthIdenticalSchedules pins the determinism contract of
// the planner's worker count: for any number of workers (which fan out
// the eccentricity pass and lowering), Build emits a schedule
// byte-identical (through the canonical binary IR encoding) to the
// sequential one, on direct, switch-based and degraded fabrics, under
// both tree orders and both allocation strategies.
func TestParallelGrowthIdenticalSchedules(t *testing.T) {
	cfgs := []struct {
		name string
		topo *topology.Topology
		opts func(*topology.Topology) Options
	}{
		{"torus-4x4", topology.Torus(4, 4, cfg()), DefaultOptions},
		{"mesh-4x4", topology.Mesh(4, 4, cfg()), DefaultOptions},
		{"mesh-8x8", topology.Mesh(8, 8, cfg()), DefaultOptions},
		{"bigraph-4x4", topology.BiGraph(4, 4, cfg()), DefaultOptions}, // Auto: both variants + scoring
		{"fattree", topology.FatTree(4, 4, 4, cfg()), DefaultOptions},
		{"torus-8x8-faulted", degradedTorus8x8(t), DefaultOptions}, // custom rebuild: no grid coords
		{"torus-4x4-byheight", topology.Torus(4, 4, cfg()), func(*topology.Topology) Options {
			return Options{Order: ByRemainingHeight}
		}},
		{"mesh-4x4-reverse", topology.Mesh(4, 4, cfg()), func(*topology.Topology) Options {
			return Options{ReverseNeighborOrder: true}
		}},
		{"bigraph-shortest", topology.BiGraph(4, 4, cfg()), func(*topology.Topology) Options {
			return Options{ShortestPathFirst: true}
		}},
	}
	for _, tc := range cfgs {
		t.Run(tc.name, func(t *testing.T) {
			want := exportBuild(t, tc.topo, tc.opts(tc.topo), 0)
			for _, workers := range []int{2, 3, 8} {
				got := exportBuild(t, tc.topo, tc.opts(tc.topo), workers)
				if !bytes.Equal(want, got) {
					t.Fatalf("workers=%d schedule differs from sequential build", workers)
				}
			}
		})
	}
}

// TestShardedGrowthIdenticalSchedules pins the bytes of the fabrics the
// retired speculative growth engines (per-worker turns and quadrant
// shards) were checked on. The digests are sha256 sums of the binary
// export recorded from builds by those engines, which matched the
// sequential build at every worker and shard count; the one sequential
// loop must reproduce them at any worker count.
func TestShardedGrowthIdenticalSchedules(t *testing.T) {
	cfgs := []struct {
		name   string
		topo   *topology.Topology
		opts   func(*topology.Topology) Options
		digest string
	}{
		{"mesh-16x16", topology.Mesh(16, 16, cfg()), DefaultOptions,
			"8e82e36007bb7786597af7a0ba3876ef852fea905155855ad4804e5118b0305b"},
		{"torus-8x8", topology.Torus(8, 8, cfg()), DefaultOptions,
			"a00d71cd63eb66f84864b366e323031142a28dbe1080ec57b0f3680a9e137759"},
		{"torus-8x8-byheight", topology.Torus(8, 8, cfg()), func(*topology.Topology) Options {
			return Options{Order: ByRemainingHeight}
		}, "a00d71cd63eb66f84864b366e323031142a28dbe1080ec57b0f3680a9e137759"},
		{"mesh-8x8-reverse", topology.Mesh(8, 8, cfg()), func(*topology.Topology) Options {
			return Options{ReverseNeighborOrder: true}
		}, "6e5988faea71576b19be07fea467ad2b15fcc1baf200656c623484e56e4a1724"},
		{"bigraph-4x4", topology.BiGraph(4, 4, cfg()), DefaultOptions,
			"045b5bab4b5faa6cb08739bd5e8b85b0f7fa13a5cb454ebdbf8b65835ad9384a"},
		{"torus-8x8-faulted", degradedTorus8x8(t), DefaultOptions,
			"25b1a6f3f6bb6225d7105aeb938a3a5a4c892a42e0f296b700ea8ee5a54099c6"},
	}
	for _, tc := range cfgs {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{0, 4} {
				sum := sha256.Sum256(exportBuild(t, tc.topo, tc.opts(tc.topo), workers))
				if got := hex.EncodeToString(sum[:]); got != tc.digest {
					t.Fatalf("workers=%d: export sha256 %s, want %s", workers, got, tc.digest)
				}
			}
		})
	}
}

// degradedTorus8x8 applies a non-disconnecting fault plan to a torus-8x8
// and returns the rebuilt (custom, coordinate-free) fabric, the shape a
// re-plan after faults.Apply sees.
func degradedTorus8x8(t testing.TB) *topology.Topology {
	plan, err := faults.ParseSpec("link:0-1:down,link:9-10:down,node:63:down")
	if err != nil {
		t.Fatal(err)
	}
	d, err := faults.Apply(topology.Torus(8, 8, cfg()), plan)
	if err != nil {
		t.Fatal(err)
	}
	return d.Topo
}

func exportBuild(t *testing.T, topo *topology.Topology, opts Options, workers int) []byte {
	t.Helper()
	opts.Workers = workers
	s, err := Build(topo, 1<<12, opts)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	var buf bytes.Buffer
	if err := collective.ExportBinary(&buf, s); err != nil {
		t.Fatalf("export: %v", err)
	}
	return buf.Bytes()
}

// growthCounters records the counters of every tree-growth phase a build
// runs (Auto runs two).
type growthCounters []obs.PlanCounters

func (g *growthCounters) PhaseStart(obs.PlanPhase) {}
func (g *growthCounters) PhaseEnd(ph obs.PlanPhase, c obs.PlanCounters) {
	if ph == obs.PhaseTreeGrowth {
		*g = append(*g, c)
	}
}
func (g *growthCounters) PlanProgress(obs.PlanPhase, int64, int64) {}
func (g *growthCounters) Pipeline(int, int)                        {}

// TestGrowthCountersWorkerInvariant pins that growth does the same work
// at every worker count, not just the same trees: the tree-growth phase
// counters (searches, misses, links scanned, conflicts) are identical at
// Workers 0, 2 and 8.
func TestGrowthCountersWorkerInvariant(t *testing.T) {
	for _, topo := range []*topology.Topology{
		topology.Mesh(8, 8, cfg()),
		topology.FatTree(4, 4, 4, cfg()),
	} {
		var want growthCounters
		for _, workers := range []int{0, 2, 8} {
			var got growthCounters
			opts := DefaultOptions(topo)
			opts.Workers = workers
			opts.Observer = &got
			if _, err := Build(topo, 1<<12, opts); err != nil {
				t.Fatalf("%s workers=%d: %v", topo.Name(), workers, err)
			}
			if len(got) == 0 || got[0].Searches == 0 {
				t.Fatalf("%s workers=%d: no growth counters recorded: %+v", topo.Name(), workers, got)
			}
			if want == nil {
				want = got
				continue
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s workers=%d growth counters differ:\n got %+v\nwant %+v", topo.Name(), workers, got, want)
			}
		}
	}
}

// TestParallelGrowthTreesMatch checks BuildTrees (the no-lowering entry
// point) too: edges, steps and pinned paths must match the sequential
// trees exactly.
func TestParallelGrowthTreesMatch(t *testing.T) {
	topo := topology.Torus(6, 6, cfg())
	opts := DefaultOptions(topo)
	seq, err := BuildTrees(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 4
	par, err := BuildTrees(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("tree count %d != %d", len(par), len(seq))
	}
	for i := range seq {
		if seq[i].String() != par[i].String() {
			t.Fatalf("tree %d differs:\nsequential %s\nparallel   %s", i, seq[i], par[i])
		}
		for node, p := range seq[i].Path {
			got := par[i].Path[node]
			if len(got) != len(p) {
				t.Fatalf("tree %d node %d path length differs", i, node)
			}
			for j := range p {
				if got[j] != p[j] {
					t.Fatalf("tree %d node %d path differs", i, node)
				}
			}
		}
	}
}
