package accel

import (
	"testing"
	"testing/quick"

	"multitree/internal/model"
)

func def() Accelerator { return Default() }

// TestGEMMCycleFormula pins the output-stationary pass cost.
func TestGEMMCycleFormula(t *testing.T) {
	a := Accelerator{Rows: 32, Cols: 32, PEs: 1}
	// One pass exactly: 32x32 outputs, K=100 -> 100 + 62 cycles.
	if got := a.gemmCycles(32, 32, 100); got != 162 {
		t.Errorf("single pass = %d, want 162", got)
	}
	// Two passes across rows.
	if got := a.gemmCycles(33, 32, 100); got != 324 {
		t.Errorf("two passes = %d, want 324", got)
	}
	// PEs divide the passes.
	a16 := Accelerator{Rows: 32, Cols: 32, PEs: 16}
	if got := a16.gemmCycles(32*16, 32, 100); got != 162 {
		t.Errorf("16 PEs on 16 passes = %d, want 162", got)
	}
	// The ideal MAC-limited time is o*c*k/1024; no shape may beat it.
	for _, s := range []struct{ o, c, k int64 }{
		{1024, 1024, 1024},
		{32, 2048, 64},
		{2048, 32, 64},
	} {
		if got, ideal := a.gemmCycles(s.o, s.c, s.k), s.o*s.c*s.k/1024; got < ideal {
			t.Errorf("%+v beats the MAC bound: %d < %d", s, got, ideal)
		}
	}
}

func TestZeroWorkCostsNothing(t *testing.T) {
	a := def()
	if a.gemmCycles(0, 10, 10) != 0 || a.gemmCycles(10, 0, 10) != 0 || a.gemmCycles(10, 10, 0) != 0 {
		t.Error("empty GEMM has nonzero cost")
	}
}

// TestConvMatchesEquivalentGEMM: a conv layer costs the same as its
// im2col GEMM.
func TestConvMatchesEquivalentGEMM(t *testing.T) {
	a := def()
	l := model.Layer{Kind: model.Conv, H: 16, W: 16, C: 8, M: 32, R: 3, S: 3, Stride: 1}
	ho, wo := l.OutDims()
	want := a.gemmCycles(int64(4*ho*wo), 32, 3*3*8)
	if got := a.ForwardCycles(l, 4); got != want {
		t.Errorf("conv forward = %d, want %d", got, want)
	}
}

// TestBackwardFirstLayerSkipsInputGradient: the first layer has no
// upstream to propagate to (§V-B's transposed-convolution note applies to
// interior layers).
func TestBackwardFirstLayerSkipsInputGradient(t *testing.T) {
	a := def()
	l := model.Layer{Kind: model.Conv, H: 16, W: 16, C: 8, M: 32, R: 3, S: 3, Stride: 1}
	first := a.BackwardCycles(l, 4, true)
	mid := a.BackwardCycles(l, 4, false)
	if first >= mid {
		t.Errorf("first-layer backward (%d) should be cheaper than interior (%d)", first, mid)
	}
}

// TestBackwardCostsMoreThanForward: backward includes the weight-gradient
// pass, so an interior layer's backward exceeds its forward.
func TestBackwardCostsMoreThanForward(t *testing.T) {
	a := def()
	for _, l := range model.ResNet50().Layers {
		if l.Kind != model.Conv {
			continue
		}
		fwd := a.ForwardCycles(l, 16)
		bwd := a.BackwardCycles(l, 16, false)
		if bwd <= fwd/2 {
			t.Errorf("%s: backward %d suspiciously below forward %d", l.Name, bwd, fwd)
		}
	}
}

// TestBatchMonotonic: more samples never cost fewer cycles.
func TestBatchMonotonic(t *testing.T) {
	a := def()
	l := model.Layer{Kind: model.FC, C: 512, M: 512}
	f := func(b1, b2 uint8) bool {
		x, y := 1+int(b1)%64, 1+int(b2)%64
		if x > y {
			x, y = y, x
		}
		return a.ForwardCycles(l, x) <= a.ForwardCycles(l, y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestNetworkCyclesArePositive for all zoo models.
func TestNetworkCyclesArePositive(t *testing.T) {
	a := def()
	for _, n := range model.Zoo() {
		fwd := a.NetworkForwardCycles(n, 16)
		bwd := a.NetworkBackwardCycles(n, 16)
		if fwd <= 0 || bwd <= 0 {
			t.Errorf("%s: fwd=%d bwd=%d", n.Name, fwd, bwd)
		}
		if bwd <= fwd {
			t.Errorf("%s: backward (%d) should exceed forward (%d)", n.Name, bwd, fwd)
		}
	}
}

// TestComputeIntensityOrdering: the convolutional workloads are
// compute-dominant relative to their gradient size; NCF and Transformer
// are not — the split that drives Fig. 11.
func TestComputeIntensityOrdering(t *testing.T) {
	a := def()
	intensity := func(n model.Network) float64 {
		return float64(a.NetworkForwardCycles(n, 16)) / float64(n.GradientBytes())
	}
	cnn := intensity(model.ResNet50())
	ncf := intensity(model.NCF())
	tra := intensity(model.Transformer())
	if cnn <= 10*ncf {
		t.Errorf("ResNet50 intensity %.3f not clearly above NCF %.3f", cnn, ncf)
	}
	if cnn <= 3*tra {
		t.Errorf("ResNet50 intensity %.3f not clearly above Transformer %.3f", cnn, tra)
	}
}
