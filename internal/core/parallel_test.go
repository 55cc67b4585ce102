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
// lowering), Build emits a schedule
// byte-identical (through the canonical binary IR encoding) to the
// sequential one, on direct, switch-based and degraded fabrics, under
// both allocation strategies.
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
// export, first recorded from builds by those engines, which matched the
// sequential build at every worker and shard count. They were
// re-recorded when the binary IR moved to version 4, from builds whose
// JSON export is byte-identical to that of the builds that reproduced
// the version-3 digests; the one sequential loop must reproduce them at
// any worker count.
func TestShardedGrowthIdenticalSchedules(t *testing.T) {
	cfgs := []struct {
		name   string
		topo   *topology.Topology
		opts   func(*topology.Topology) Options
		digest string
	}{
		{"mesh-16x16", topology.Mesh(16, 16, cfg()), DefaultOptions,
			"1b45c3edc52a40044640acd21c853381bc72a4609e643393fb1b0f505a46c5d8"},
		{"torus-8x8", topology.Torus(8, 8, cfg()), DefaultOptions,
			"e0a6ed00a784a3de537f633418fa956b3a4dd959a5ecfb7b3862a115406ed519"},
		{"bigraph-4x4", topology.BiGraph(4, 4, cfg()), DefaultOptions,
			"af506e74d4094440aee89dce797c2fcd3d502ec56a783baf103821e8c9eda854"},
		{"torus-8x8-faulted", degradedTorus8x8(t), DefaultOptions,
			"686fa5795f14497bd2a58f0147465cbe8e35bb88c336256f1456c4e7e67650fe"},
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
