package training_test

import (
	"testing"

	"multitree/internal/accel"
	"multitree/internal/collective"
	"multitree/internal/core"
	"multitree/internal/model"
	"multitree/internal/network"
	"multitree/internal/ring"
	"multitree/internal/topology"
	"multitree/internal/training"
)

func config(t *testing.T, alg string) training.Config {
	t.Helper()
	topo := topology.Torus(4, 4, topology.DefaultLinkConfig())
	build := func(tp *topology.Topology, elems int) (*collective.Schedule, error) {
		if alg == "ring" {
			return ring.Build(tp, elems), nil
		}
		return core.Build(tp, elems, core.Options{})
	}
	return training.Config{
		Topo:         topo,
		Accel:        accel.Default(),
		BatchPerNode: 16,
		Net:          network.DefaultConfig(),
		Build:        build,
	}
}

func TestNonOverlappedAccounting(t *testing.T) {
	cfg := config(t, "ring")
	b, err := cfg.NonOverlapped(model.GoogLeNet())
	if err != nil {
		t.Fatal(err)
	}
	if b.Total != b.Forward+b.Backward+b.Comm {
		t.Errorf("total %d != fwd %d + bwd %d + comm %d", b.Total, b.Forward, b.Backward, b.Comm)
	}
	if b.Exposed != b.Comm || b.Overlap != 0 {
		t.Errorf("non-overlapped exposure wrong: %+v", b)
	}
	if b.Comm == 0 || b.Forward == 0 || b.Backward == 0 {
		t.Errorf("zero component: %+v", b)
	}
}

func TestOverlappedAccounting(t *testing.T) {
	cfg := config(t, "ring")
	b, err := cfg.Overlapped(model.GoogLeNet())
	if err != nil {
		t.Fatal(err)
	}
	if b.Exposed+b.Overlap != b.Comm {
		t.Errorf("exposed %d + overlap %d != comm %d", b.Exposed, b.Overlap, b.Comm)
	}
	if b.Total < b.Forward+b.Backward {
		t.Errorf("total %d below compute %d", b.Total, b.Forward+b.Backward)
	}
	if b.Total > b.Forward+b.Backward+b.Comm {
		t.Errorf("total %d exceeds serial time", b.Total)
	}
}

// TestOverlapHelps: layer-wise all-reduce never makes an iteration slower
// than the non-overlapped sequence (same algorithm, same model).
func TestOverlapHelps(t *testing.T) {
	cfg := config(t, "ring")
	for _, net := range model.Zoo() {
		seq, err := cfg.NonOverlapped(net)
		if err != nil {
			t.Fatal(err)
		}
		ovl, err := cfg.Overlapped(net)
		if err != nil {
			t.Fatal(err)
		}
		// Layer-wise all-reduce pays per-layer latency, so allow a small
		// margin on communication-dominated models.
		if float64(ovl.Total) > 1.10*float64(seq.Total) {
			t.Errorf("%s: overlapped %d much slower than sequential %d", net.Name, ovl.Total, seq.Total)
		}
	}
}

// TestMultiTreeBeatsRing end to end on a communication-heavy model.
func TestMultiTreeBeatsRing(t *testing.T) {
	ringCfg := config(t, "ring")
	mtCfg := config(t, "multitree")
	net := model.Transformer()
	r, err := ringCfg.NonOverlapped(net)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mtCfg.NonOverlapped(net)
	if err != nil {
		t.Fatal(err)
	}
	if m.Comm >= r.Comm {
		t.Errorf("multitree comm %d not below ring %d", m.Comm, r.Comm)
	}
	if speedup := float64(r.Comm) / float64(m.Comm); speedup < 1.5 {
		t.Errorf("all-reduce speedup %.2f, want > 1.5", speedup)
	}
}

// TestCNNOverlapHidesComm: for a compute-heavy CNN, MultiTree's layer-wise
// all-reduce hides almost all communication (Fig. 11b's CNN story).
func TestCNNOverlapHidesComm(t *testing.T) {
	cfg := config(t, "multitree")
	b, err := cfg.Overlapped(model.FasterRCNN())
	if err != nil {
		t.Fatal(err)
	}
	if frac := float64(b.Exposed) / float64(b.Total); frac > 0.05 {
		t.Errorf("exposed comm fraction %.2f, want < 0.05 for a CNN under MultiTree", frac)
	}
}

func TestZeroParamLayerCostsNoComm(t *testing.T) {
	cfg := config(t, "ring")
	net := model.Network{Name: "attn-only", Layers: []model.Layer{
		{Name: "attn", Kind: model.Attention, Seq: 16, M: 64},
	}}
	b, err := cfg.NonOverlapped(net)
	if err != nil {
		t.Fatal(err)
	}
	if b.Comm != 0 {
		t.Errorf("parameter-free network has comm %d", b.Comm)
	}
}

func TestBreakdownString(t *testing.T) {
	b := training.Breakdown{Forward: 1, Backward: 2, Comm: 3, Exposed: 3, Total: 6}
	if s := b.String(); s == "" {
		t.Error("empty String()")
	}
	if b.Compute() != 3 {
		t.Errorf("Compute() = %d, want 3", b.Compute())
	}
}

// TestOverlappedPinned pins whole Breakdowns of the layer-wise iteration
// on the 4x4 torus, so any change to
// how Overlapped schedules or simulates its all-reduces must reproduce
// the same cycles. The constants were recorded from the straightforward
// build-and-simulate-every-layer loop.
func TestOverlappedPinned(t *testing.T) {
	for _, tc := range []struct {
		model string
		alg   string
		want  training.Breakdown
	}{
		{"ResNet50", "ring", training.Breakdown{Forward: 4426064, Backward: 8555947, Comm: 12959310, Exposed: 4417595, Overlap: 8541715, Total: 17399606}},
		{"ResNet50", "multitree", training.Breakdown{Forward: 4426064, Backward: 8555947, Comm: 4287530, Exposed: 2480, Overlap: 4285050, Total: 12984491}},
		{"Transformer", "ring", training.Breakdown{Forward: 1324768, Backward: 2613808, Comm: 17741040, Exposed: 15270208, Overlap: 2470832, Total: 19208784}},
		{"Transformer", "multitree", training.Breakdown{Forward: 1324768, Backward: 2613808, Comm: 5891480, Exposed: 3420648, Overlap: 2470832, Total: 7359224}},
	} {
		net, err := model.ByName(tc.model)
		if err != nil {
			t.Fatal(err)
		}
		got, err := config(t, tc.alg).Overlapped(net)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%s/%s:\n got  %+v\n want %+v", tc.model, tc.alg, got, tc.want)
		}
	}
}
