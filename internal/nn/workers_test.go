package nn

import (
	"fmt"
	"testing"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// TestPoollessLayersAcrossWorkers checks that LeakyReLU and AvgPool3D,
// the layers that once ran on one goroutine, give the same bits on 1, 2
// and 5 workers: Forward and Backward on every sample, and a one-layer
// network's InferBatch at B=1 and B=3. The activation's inputs are
// 32768 elements per sample, so its element ranges split within a sample
// and, at B=3, across sample boundaries; the pooling geometries include
// K=3, stride 2, whose windows overlap in Backward. Each layer reaches its
// pool through cloneFor, which must swap it in.
func TestPoollessLayersAcrossWorkers(t *testing.T) {
	cases := []struct {
		name  string
		layer func(*parallel.Pool) Layer
		in    tensor.Shape
	}{
		{"leaky", func(p *parallel.Pool) Layer { return NewLeakyReLU("a", 0.1, p) }, tensor.Shape{8, 16, 16, 16}},
		{"pool-k2-s2", func(p *parallel.Pool) Layer { return NewAvgPool3D("p", 2, 2, p) }, tensor.Shape{6, 8, 8, 8}},
		{"pool-k3-s2", func(p *parallel.Pool) Layer { return NewAvgPool3D("p", 3, 2, p) }, tensor.Shape{6, 9, 9, 9}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			xs := randBatch(tc.in, 3, 41)
			dys := randBatch(tc.layer(nil).OutputShape(tc.in), 3, 43)

			// run returns, per sample, Forward's output and Backward's
			// input gradient, then InferBatch's outputs at B=1 and B=3.
			run := func(workers int) [][]float32 {
				pool := parallel.NewPool(workers)
				defer pool.Close()
				l := tc.layer(nil).cloneFor(pool)
				net := &Network{Layers: []Layer{l}, InputDim: tc.in[1], InputChannels: tc.in[0]}
				if got := net.Pool().Workers(); got != workers {
					t.Fatalf("layer runs on %d workers, want %d", got, workers)
				}
				var outs [][]float32
				for i, x := range xs {
					outs = append(outs, l.Forward(x).Data(), l.Backward(dys[i]).Data())
				}
				for _, B := range []int{1, 3} {
					for _, y := range net.InferBatch(xs[:B]) {
						outs = append(outs, append([]float32(nil), y.Data()...))
					}
				}
				return outs
			}
			want := run(1)
			for _, workers := range []int{2, 5} {
				got := run(workers)
				for k := range want {
					requireBits(t, fmt.Sprintf("workers=%d output %d", workers, k), got[k], want[k])
				}
			}
		})
	}
}
