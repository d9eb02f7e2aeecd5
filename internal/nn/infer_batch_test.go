package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// allLayerNet builds a network exercising every layer type the batched
// path dispatches on: a strided convolution (the any-k row kernel), a
// stride-1 16→16 convolution (the k=3 row kernel), pooling, flatten, dense,
// and activations.
func allLayerNet(t testing.TB, pool *parallel.Pool, seed int64) *Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net := &Network{InputDim: 12, InputChannels: 1}
	add := func(l Layer) { net.Layers = append(net.Layers, l) }
	add(NewConv3D("c1", 1, 16, 3, 2, 1, pool, rng)) // stride 2: fwdRowTaps
	add(NewLeakyReLU("c1.act", 0))
	add(NewConv3D("c2", 16, 16, 3, 1, 1, pool, rng)) // k=3, stride 1: fwdRowK3
	add(NewAvgPool3D("p1", 2, 2))
	add(NewFlatten("flat"))
	add(NewDense("fc1", 16*3*3*3, 8, pool, rng))
	add(NewLeakyReLU("fc1.act", 0))
	add(NewDense("fc2", 8, 3, pool, rng))
	return net
}

func randBatch(shape tensor.Shape, n int, seed int64) []*tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]*tensor.Tensor, n)
	for i := range xs {
		xs[i] = tensor.New(shape...)
		xs[i].RandNormal(rng, 0, 1)
	}
	return xs
}

// requireBits fails t unless got and want hold the same float32 bits.
func requireBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", what, len(got), len(want))
	}
	for j := range want {
		if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
			t.Fatalf("%s: out[%d] = %v, want %v", what, j, got[j], want[j])
		}
	}
}

// refNetForward is the float64 loop-nest reference of the forward pass
// over every layer type, rounding nothing to float32.
func refNetForward(net *Network, x *tensor.Tensor) []float64 {
	shape, v := x.Shape(), toFloat64(x.Data())
	for _, l := range net.Layers {
		out := l.OutputShape(shape)
		switch l := l.(type) {
		case *Conv3D:
			v = refConv(l, shape, v)
		case *LeakyReLU:
			for i, f := range v {
				if f <= 0 {
					v[i] = float64(l.Alpha) * f
				}
			}
		case *AvgPool3D:
			y := make([]float64, out.NumElements())
			for i := range y {
				xx, yy, z, c := i%out[3], i/out[3]%out[2], i/(out[3]*out[2])%out[1], i/(out[3]*out[2]*out[1])
				for kd := 0; kd < l.K; kd++ {
					for kh := 0; kh < l.K; kh++ {
						for kw := 0; kw < l.K; kw++ {
							y[i] += v[((c*shape[1]+z*l.Stride+kd)*shape[2]+yy*l.Stride+kh)*shape[3]+xx*l.Stride+kw]
						}
					}
				}
				y[i] /= float64(l.K * l.K * l.K)
			}
			v = y
		case *Dense:
			y := make([]float64, l.Out)
			w, b := l.W.Value.Data(), l.B.Value.Data()
			for o := range y {
				y[o] = float64(b[o])
				for i, f := range v {
					y[o] += float64(w[o*l.In+i]) * f
				}
			}
			v = y
		case *Flatten:
		default:
			panic(fmt.Sprintf("refNetForward: no reference for %T", l))
		}
		shape = out
	}
	return v
}

// TestInferBatchMatchesSequential is the forward contract over every layer
// type: each sample's output lies within 1e-4 of the float64 reference and
// is bit-identical across batch sizes, worker counts and Infer.
func TestInferBatchMatchesSequential(t *testing.T) {
	pool3 := parallel.NewPool(3)
	defer pool3.Close()
	nets := []*Network{allLayerNet(t, parallel.NewPool(1), 3), allLayerNet(t, pool3, 3)}
	xs := randBatch(nets[0].InputShape(), 8, 100)
	want := make([][]float32, len(xs))
	for i, x := range xs {
		want[i] = append([]float32(nil), nets[0].Infer(x).Data()...)
		if e := maxRelErr(want[i], refNetForward(nets[0], x)); e > 1e-4 {
			t.Fatalf("sample %d: relative error %g against the float64 reference", i, e)
		}
	}
	for _, net := range nets {
		workers := net.inferPool().Workers()
		for _, B := range []int{1, 2, 3, 5, 8} {
			ys := net.InferBatch(xs[:B])
			if len(ys) != B {
				t.Fatalf("B=%d: InferBatch returned %d outputs", B, len(ys))
			}
			for i, y := range ys {
				requireBits(t, fmt.Sprintf("workers=%d B=%d sample %d", workers, B, i), y.Data(), want[i])
			}
		}
	}
}

// TestInferBatchDeterministicAcrossWorkers checks the (sample × task)
// decomposition never changes results: multi-worker batched outputs equal
// single-worker batched outputs bit-for-bit.
func TestInferBatchDeterministicAcrossWorkers(t *testing.T) {
	pool1 := parallel.NewPool(1)
	pool4 := parallel.NewPool(4)
	defer pool4.Close()
	net1 := allLayerNet(t, pool1, 3)
	net4 := allLayerNet(t, pool4, 3)
	xs := randBatch(net1.InputShape(), 6, 11)
	ys1 := net1.InferBatch(xs)
	ys4 := net4.InferBatch(xs)
	for i := range ys1 {
		d1, d4 := ys1[i].Data(), ys4[i].Data()
		for j := range d1 {
			if d1[j] != d4[j] {
				t.Fatalf("sample %d out[%d]: 4 workers %v != 1 worker %v", i, j, d4[j], d1[j])
			}
		}
	}
}

// TestInferBatchBufferReuse checks recycled activation buffers never leak
// one batch's values into the next: interleaved calls with different
// batches keep reproducing their first answers, and Infer stays consistent
// after batched calls.
func TestInferBatchBufferReuse(t *testing.T) {
	pool := parallel.NewPool(1)
	net := allLayerNet(t, pool, 5)
	a := randBatch(net.InputShape(), 4, 21)
	b := randBatch(net.InputShape(), 7, 22)

	snap := func(ys []*tensor.Tensor) [][]float32 {
		out := make([][]float32, len(ys))
		for i, y := range ys {
			out[i] = append([]float32(nil), y.Data()...)
		}
		return out
	}
	wantA := snap(net.InferBatch(a))
	wantB := snap(net.InferBatch(b))
	for round := 0; round < 3; round++ {
		gotA := snap(net.InferBatch(a))
		gotB := snap(net.InferBatch(b))
		for i := range wantA {
			for j := range wantA[i] {
				if gotA[i][j] != wantA[i][j] {
					t.Fatalf("round %d: batch A sample %d drifted after buffer reuse", round, i)
				}
			}
		}
		for i := range wantB {
			for j := range wantB[i] {
				if gotB[i][j] != wantB[i][j] {
					t.Fatalf("round %d: batch B sample %d drifted after buffer reuse", round, i)
				}
			}
		}
	}
	seq := net.Infer(a[0])
	for j, v := range seq.Data() {
		if v != wantA[0][j] {
			t.Fatalf("sequential Infer diverged after batched calls at out[%d]", j)
		}
	}
}

// TestInferBatchBlockedEdgeShapes sweeps a 16→16 Conv3D, the paper's
// channel-blocked layer shape, over output widths 1, 7 and 27–30: each
// sample must lie within 1e-4 of the float64 reference and be
// bit-identical across batch sizes, worker counts and Clone.
func TestInferBatchBlockedEdgeShapes(t *testing.T) {
	pool3 := parallel.NewPool(3)
	defer pool3.Close()
	rng := rand.New(rand.NewSource(9))
	for _, w := range []int{1, 7, 27, 28, 29, 30} {
		t.Run(fmt.Sprintf("w%d", w), func(t *testing.T) {
			conv := NewConv3D("c", 16, 16, 3, 1, 1, parallel.NewPool(1), rng)
			xs := randBatch(tensor.Shape{16, 2, 3, w}, 8, int64(w))
			want := make([][]float32, len(xs))
			for i, x := range xs {
				want[i] = append([]float32(nil), conv.Forward(x).Data()...)
				if e := maxRelErr(want[i], refConvForward(conv, x)); e > 1e-4 {
					t.Fatalf("sample %d: relative error %g against the float64 reference", i, e)
				}
			}
			for _, c := range []*Conv3D{conv, conv.cloneFor(pool3).(*Conv3D)} {
				ctx := &batchCtx{pool: c.pool, buf: tensor.NewBufPool()}
				for _, B := range []int{1, 2, 3, 5, 8} {
					for i, y := range c.inferBatch(xs[:B], ctx) {
						requireBits(t, fmt.Sprintf("workers=%d B=%d sample %d", c.pool.Workers(), B, i), y.Data(), want[i])
					}
				}
			}
		})
	}
}

// TestInferBatchEdgeCases covers the degenerate batch sizes and the
// mixed-shape guard.
func TestInferBatchEdgeCases(t *testing.T) {
	pool := parallel.NewPool(1)
	net := allLayerNet(t, pool, 13)
	if ys := net.InferBatch(nil); ys != nil {
		t.Fatalf("InferBatch(nil) = %v, want nil", ys)
	}
	x := randBatch(net.InputShape(), 1, 31)[0]
	want := net.Infer(x).Data()
	got := net.InferBatch([]*tensor.Tensor{x})
	if len(got) != 1 {
		t.Fatalf("B=1 returned %d outputs", len(got))
	}
	for j, v := range got[0].Data() {
		if v != want[j] {
			t.Fatalf("B=1 out[%d]: %v != %v", j, v, want[j])
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("mixed-shape batch did not panic")
		}
	}()
	net.InferBatch([]*tensor.Tensor{
		tensor.New(net.InputShape()...),
		tensor.New(1, 4, 4, 4),
	})
}

// TestInferBatchSteadyStateAllocations checks the activation recycler
// serves every batch size, one included: after a warm-up call, a dim-16
// base-16 InferBatch allocates less than 64 KB per sample, against the
// ≈ 1 MB of activations a fresh-allocating forward needs.
func TestInferBatchSteadyStateAllocations(t *testing.T) {
	pool := parallel.NewPool(2)
	defer pool.Close()
	net, err := BuildCosmoFlow(TopologyConfig{InputDim: 16, BaseChannels: 16, Seed: 1, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	const calls, budget = 4, 64 << 10
	for _, B := range []int{1, 3} {
		xs := randBatch(net.InputShape(), B, int64(B))
		net.InferBatch(xs) // warm the buffer pool
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			net.InferBatch(xs)
		}
		runtime.ReadMemStats(&after)
		if perSample := (after.TotalAlloc - before.TotalAlloc) / uint64(calls*B); perSample >= budget {
			t.Errorf("B=%d: %d bytes allocated per sample per call, want < %d", B, perSample, budget)
		}
	}
}

// TestInferBatchOnCosmoFlowTopology runs the real topology builder's
// network at BaseChannels 16 (every OutC a multiple of 4) through the
// batched path against sequential Infer.
func TestInferBatchOnCosmoFlowTopology(t *testing.T) {
	pool := parallel.NewPool(2)
	defer pool.Close()
	net, err := BuildCosmoFlow(TopologyConfig{InputDim: 8, BaseChannels: 16, Seed: 2, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	xs := randBatch(net.InputShape(), 4, 41)
	want := make([][]float32, len(xs))
	for i, x := range xs {
		want[i] = append([]float32(nil), net.Infer(x).Data()...)
	}
	for _, y := range net.InferBatch(xs) {
		_ = y
	}
	ys := net.InferBatch(xs) // second call exercises recycled buffers
	for i, y := range ys {
		for j, v := range y.Data() {
			if v != want[i][j] {
				t.Fatalf("sample %d out[%d]: batched %v != sequential %v", i, j, v, want[i][j])
			}
		}
	}
}
