// Package accel is the compute-side substrate: an analytical model of a
// TPU-like training accelerator built from output-stationary systolic
// arrays, standing in for the paper's extended SCALE-Sim (§V-A). The
// configuration of Table III is 16 processing elements, each a 32x32 MAC
// array at 1 GHz, with double buffering and sufficient memory bandwidth to
// sustain peak throughput — so compute time is the systolic dataflow time,
// not a memory model.
//
// Output-stationary mapping: each PE pass pins a tile of (output pixel,
// output channel) pairs — up to Rows x Cols outputs — and streams their
// K-long dot products through the array, costing K + (Rows + Cols - 2)
// cycles of fill/drain per pass. A layer's passes are divided evenly
// across the accelerator's PEs.
//
// Back-propagation (the paper's SCALE-Sim extension) costs, per layer:
// an input-gradient pass (the transposed convolution the paper calls out,
// skipped for the first layer) and a weight-gradient pass, both expressed
// as GEMMs on the same array.
package accel

import (
	"multitree/internal/model"
)

// Accelerator describes one compute node.
type Accelerator struct {
	Rows, Cols int // systolic array dimensions (32x32)
	PEs        int // processing elements per accelerator (16)
}

// Default returns the Table III accelerator configuration
// (output-stationary 32x32 arrays, 16 PEs).
func Default() Accelerator {
	return Accelerator{Rows: 32, Cols: 32, PEs: 16}
}

// gemmCycles returns the cycle count of an outputs x channels GEMM with
// k-long dot products, spread over the accelerator's PEs. Each
// output-stationary pass pins one Rows x Cols output tile and streams the
// k-long dot products through, paying the array fill/drain once per pass.
func (a Accelerator) gemmCycles(outputs, channels, k int64) int64 {
	if outputs <= 0 || channels <= 0 || k <= 0 {
		return 0
	}
	passes := ceilDiv(outputs, int64(a.Rows)) * ceilDiv(channels, int64(a.Cols))
	perPass := k + int64(a.Rows) + int64(a.Cols) - 2
	return ceilDiv(passes*perPass, int64(a.PEs))
}

// ForwardCycles returns one forward pass of the layer over a batch.
func (a Accelerator) ForwardCycles(l model.Layer, batch int) int64 {
	b := int64(batch)
	switch l.Kind {
	case model.Conv:
		ho, wo := l.OutDims()
		return a.gemmCycles(b*int64(ho)*int64(wo), int64(l.M),
			int64(l.R)*int64(l.S)*int64(l.C))
	case model.FC:
		seq := int64(l.Seq)
		if seq == 0 {
			seq = 1
		}
		return a.gemmCycles(b*seq, int64(l.M), int64(l.C))
	case model.Attention:
		seq := int64(l.Seq)
		// Scores QK^T (seq x seq, K = M) and context (seq x M, K = seq).
		return a.gemmCycles(b*seq, seq, int64(l.M)) +
			a.gemmCycles(b*seq, int64(l.M), seq)
	case model.Embedding:
		// Table lookups: one row fetch per sample, no MACs; charge one
		// cycle per fetched element per PE-row as a streaming cost.
		return ceilDiv(b*int64(l.M), int64(a.Rows*a.PEs))
	}
	return 0
}

// BackwardCycles returns one backward pass of the layer over a batch:
// weight-gradient GEMM plus, unless first (the layer has no upstream),
// the input-gradient (transposed convolution) GEMM.
func (a Accelerator) BackwardCycles(l model.Layer, batch int, first bool) int64 {
	b := int64(batch)
	var wg, ig int64
	switch l.Kind {
	case model.Conv:
		ho, wo := l.OutDims()
		outPix := b * int64(ho) * int64(wo)
		// dW: (R*S*C) x M GEMM with K = batch*Ho*Wo.
		wg = a.gemmCycles(int64(l.R)*int64(l.S)*int64(l.C), int64(l.M), outPix)
		if !first {
			// dX: transposed convolution, one R*S*M dot product per input
			// pixel.
			ig = a.gemmCycles(b*int64(l.H)*int64(l.W), int64(l.C),
				int64(l.R)*int64(l.S)*int64(l.M))
		}
	case model.FC:
		seq := int64(l.Seq)
		if seq == 0 {
			seq = 1
		}
		wg = a.gemmCycles(int64(l.C), int64(l.M), b*seq)
		if !first {
			ig = a.gemmCycles(b*seq, int64(l.C), int64(l.M))
		}
	case model.Attention:
		// Gradients through both attention GEMMs cost about twice the
		// forward work.
		return 2 * a.ForwardCycles(l, batch)
	case model.Embedding:
		// Scatter-add of row gradients.
		wg = ceilDiv(b*int64(l.M), int64(a.Rows*a.PEs))
	}
	return wg + ig
}

// NetworkForwardCycles sums forward cycles over all layers.
func (a Accelerator) NetworkForwardCycles(n model.Network, batch int) int64 {
	var sum int64
	for _, l := range n.Layers {
		sum += a.ForwardCycles(l, batch)
	}
	return sum
}

// NetworkBackwardCycles sums backward cycles over all layers; the first
// layer skips its input-gradient pass.
func (a Accelerator) NetworkBackwardCycles(n model.Network, batch int) int64 {
	var sum int64
	for i, l := range n.Layers {
		sum += a.BackwardCycles(l, batch, i == 0)
	}
	return sum
}

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }
