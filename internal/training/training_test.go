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

// TestGradientFusion captures the fusion tradeoff: bucketing amortizes
// per-collective latency (network busy time always drops), and for
// networks made of many tiny layers — where each layer-wise all-reduce is
// latency-bound — it shortens the whole iteration. On coarse-layer CNNs
// it may instead delay communication start, so the iteration is allowed
// to shift slightly either way.
func TestGradientFusion(t *testing.T) {
	base := config(t, "multitree")
	fused := base
	fused.FusionBytes = 4 << 20

	// Busy-time reduction on real models.
	for _, net := range []model.Network{model.ResNet50(), model.GoogLeNet()} {
		b0, err := base.Overlapped(net)
		if err != nil {
			t.Fatal(err)
		}
		b1, err := fused.Overlapped(net)
		if err != nil {
			t.Fatal(err)
		}
		if b1.Comm > b0.Comm {
			t.Errorf("%s: fusion increased comm busy time %d -> %d", net.Name, b0.Comm, b1.Comm)
		}
		if float64(b1.Total) > 1.05*float64(b0.Total) {
			t.Errorf("%s: fusion slowed the iteration badly: %d -> %d", net.Name, b0.Total, b1.Total)
		}
	}

	// End-to-end win on a many-tiny-layers network (latency-bound
	// collectives).
	tiny := model.Network{Name: "tiny-mlp"}
	for i := 0; i < 80; i++ {
		tiny.Layers = append(tiny.Layers, model.Layer{
			Name: "fc", Kind: model.FC, C: 64, M: 64,
		})
	}
	b0, err := base.Overlapped(tiny)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := fused.Overlapped(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if b1.Total >= b0.Total {
		t.Errorf("tiny-mlp: fusion did not help: %d -> %d", b0.Total, b1.Total)
	}
}

// TestOverlappedPinned pins whole Breakdowns of the layer-wise iteration
// on the 4x4 torus, with and without gradient fusion, so any change to
// how Overlapped schedules or simulates its all-reduces must reproduce
// the same cycles. The constants were recorded from the straightforward
// build-and-simulate-every-layer loop.
func TestOverlappedPinned(t *testing.T) {
	for _, tc := range []struct {
		model       string
		alg         string
		fusionBytes int64
		want        training.Breakdown
	}{
		{"ResNet50", "ring", 0, training.Breakdown{Forward: 4426064, Backward: 8555947, Comm: 12959310, Exposed: 4417595, Overlap: 8541715, Total: 17399606}},
		{"ResNet50", "ring", 4 << 20, training.Breakdown{Forward: 4426064, Backward: 8555947, Comm: 12801090, Exposed: 4259375, Overlap: 8541715, Total: 17241386}},
		{"ResNet50", "multitree", 0, training.Breakdown{Forward: 4426064, Backward: 8555947, Comm: 4287530, Exposed: 2480, Overlap: 4285050, Total: 12984491}},
		{"ResNet50", "multitree", 4 << 20, training.Breakdown{Forward: 4426064, Backward: 8555947, Comm: 4255630, Exposed: 20785, Overlap: 4234845, Total: 13002796}},
		{"Transformer", "ring", 0, training.Breakdown{Forward: 1324768, Backward: 2613808, Comm: 17741040, Exposed: 15270208, Overlap: 2470832, Total: 19208784}},
		{"Transformer", "ring", 4 << 20, training.Breakdown{Forward: 1324768, Backward: 2613808, Comm: 17659680, Exposed: 15188848, Overlap: 2470832, Total: 19127424}},
		{"Transformer", "multitree", 0, training.Breakdown{Forward: 1324768, Backward: 2613808, Comm: 5891480, Exposed: 3420648, Overlap: 2470832, Total: 7359224}},
		{"Transformer", "multitree", 4 << 20, training.Breakdown{Forward: 1324768, Backward: 2613808, Comm: 5875160, Exposed: 3404328, Overlap: 2470832, Total: 7342904}},
	} {
		net, err := model.ByName(tc.model)
		if err != nil {
			t.Fatal(err)
		}
		cfg := config(t, tc.alg)
		cfg.FusionBytes = tc.fusionBytes
		got, err := cfg.Overlapped(net)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%s/%s fusion=%d:\n got  %+v\n want %+v", tc.model, tc.alg, tc.fusionBytes, got, tc.want)
		}
	}
}
