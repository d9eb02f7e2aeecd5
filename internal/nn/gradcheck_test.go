package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// lossOf computes a deterministic scalar "loss" sum(y ⊙ r) of a layer's
// output for a fixed random projection r, so dLoss/dy = r.
func lossOf(y *tensor.Tensor, r []float32) float64 {
	var s float64
	for i, v := range y.Data() {
		s += float64(v) * float64(r[i])
	}
	return s
}

// checkGrad numerically verifies dLoss/dv for the scalar at data[idx]
// against the analytic value, using central differences.
func checkGrad(t *testing.T, name string, forward func() float64, data []float32, idx int, analytic float64, tol float64) {
	t.Helper()
	const eps = 1e-2
	orig := data[idx]
	data[idx] = orig + eps
	plus := forward()
	data[idx] = orig - eps
	minus := forward()
	data[idx] = orig
	numeric := (plus - minus) / (2 * eps)
	diff := math.Abs(numeric - analytic)
	scale := math.Max(1, math.Max(math.Abs(numeric), math.Abs(analytic)))
	if diff/scale > tol {
		t.Errorf("%s[%d]: analytic %g vs numeric %g (rel %g)", name, idx, analytic, numeric, diff/scale)
	}
}

// sampleIndices returns up to n distinct indices in [0, size).
func sampleIndices(rng *rand.Rand, size, n int) []int {
	if size <= n {
		idx := make([]int, size)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	perm := rng.Perm(size)
	return perm[:n]
}

func convGradCheck(t *testing.T, ic, oc, dim, stride int) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	pool := parallel.NewPool(1)
	defer pool.Close()
	c := NewConv3D("c", ic, oc, 3, stride, 1, pool, rng)
	c.B.Value.RandNormal(rng, 0, 0.5)

	x := tensor.New(ic, dim, dim, dim)
	x.RandNormal(rng, 0, 1)
	outShape := c.OutputShape(x.Shape())
	r := make([]float32, outShape.NumElements())
	for i := range r {
		r[i] = float32(rng.NormFloat64())
	}

	forward := func() float64 {
		return lossOf(c.Forward(x), r)
	}

	// Analytic gradients.
	y := c.Forward(x)
	dy := tensor.FromData(append([]float32(nil), r...), outShape...)
	c.W.Grad.Zero()
	c.B.Grad.Zero()
	dx := c.Backward(dy)
	_ = y

	const tol = 2e-2
	wd := c.W.Value.Data()
	for _, i := range sampleIndices(rng, len(wd), 12) {
		checkGrad(t, "dW", forward, wd, i, float64(c.W.Grad.Data()[i]), tol)
	}
	bd := c.B.Value.Data()
	for _, i := range sampleIndices(rng, len(bd), 3) {
		checkGrad(t, "dB", forward, bd, i, float64(c.B.Grad.Data()[i]), tol)
	}
	xd := x.Data()
	for _, i := range sampleIndices(rng, len(xd), 12) {
		checkGrad(t, "dX", forward, xd, i, float64(dx.Data()[i]), tol)
	}
}

func TestConv3DGradientsDirect(t *testing.T) {
	convGradCheck(t, 2, 3, 5, 1)
}

func TestConv3DGradientsStride2(t *testing.T) {
	convGradCheck(t, 2, 3, 6, 2)
}

func TestConv3DGradientsSingleInputChannel(t *testing.T) {
	convGradCheck(t, 1, 4, 4, 1)
}

func TestConv3DGradientsBlockedPath(t *testing.T) {
	// 16→16 channels, stride 1: the paper's channel-blocked layer shape,
	// where the forward takes the k=3 stride-1 row kernel.
	convGradCheck(t, 16, 16, 4, 1)
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	pool := parallel.NewPool(1)
	defer pool.Close()
	d := NewDense("d", 7, 5, pool, rng)
	d.B.Value.RandNormal(rng, 0, 0.5)
	x := tensor.New(7)
	x.RandNormal(rng, 0, 1)
	r := make([]float32, 5)
	for i := range r {
		r[i] = float32(rng.NormFloat64())
	}
	forward := func() float64 { return lossOf(d.Forward(x), r) }

	d.Forward(x)
	d.W.Grad.Zero()
	d.B.Grad.Zero()
	dx := d.Backward(tensor.FromData(append([]float32(nil), r...), 5))

	const tol = 1e-2
	for i := range d.W.Value.Data() {
		checkGrad(t, "dW", forward, d.W.Value.Data(), i, float64(d.W.Grad.Data()[i]), tol)
	}
	for i := range d.B.Value.Data() {
		checkGrad(t, "dB", forward, d.B.Value.Data(), i, float64(d.B.Grad.Data()[i]), tol)
	}
	for i := range x.Data() {
		checkGrad(t, "dX", forward, x.Data(), i, float64(dx.Data()[i]), tol)
	}
}

func TestAvgPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := NewAvgPool3D("p", 2, 2)
	x := tensor.New(2, 4, 4, 4)
	x.RandNormal(rng, 0, 1)
	outShape := p.OutputShape(x.Shape())
	r := make([]float32, outShape.NumElements())
	for i := range r {
		r[i] = float32(rng.NormFloat64())
	}
	forward := func() float64 { return lossOf(p.Forward(x), r) }
	p.Forward(x)
	dx := p.Backward(tensor.FromData(append([]float32(nil), r...), outShape...))
	for _, i := range sampleIndices(rng, x.NumElements(), 20) {
		checkGrad(t, "dX", forward, x.Data(), i, float64(dx.Data()[i]), 1e-2)
	}
}

func TestLeakyReLUGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	l := NewLeakyReLU("a", 0.1)
	x := tensor.New(64)
	x.RandNormal(rng, 0, 1)
	// Keep values away from the kink where central differences are invalid.
	for i, v := range x.Data() {
		if v > -0.05 && v < 0.05 {
			x.Data()[i] = v + 0.2
		}
	}
	r := make([]float32, 64)
	for i := range r {
		r[i] = float32(rng.NormFloat64())
	}
	forward := func() float64 { return lossOf(l.Forward(x), r) }
	l.Forward(x)
	dx := l.Backward(tensor.FromData(append([]float32(nil), r...), 64))
	for _, i := range sampleIndices(rng, 64, 20) {
		checkGrad(t, "dX", forward, x.Data(), i, float64(dx.Data()[i]), 1e-2)
	}
}

func TestEndToEndNetworkGradient(t *testing.T) {
	// Full-network gradient check on a tiny CosmoFlow topology: perturbs a
	// handful of parameters across different layers and compares numeric
	// loss differences against the accumulated analytic gradients.
	pool := parallel.NewPool(1)
	defer pool.Close()
	net, err := BuildCosmoFlow(TopologyConfig{InputDim: 8, BaseChannels: 2, Seed: 3, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(15))
	x := tensor.New(1, 8, 8, 8)
	x.RandNormal(rng, 0, 1)
	target := []float32{0.3, 0.6, 0.9}

	// Shift the output-layer biases away from zero: an untrained network
	// predicts ≈0, which sits exactly on the leaky-ReLU kink where central
	// differences are invalid.
	lastBias := net.Params()[len(net.Params())-1]
	lastBias.Value.Fill(0.5)

	forward := func() float64 {
		loss, _ := MSELoss(net.Forward(x), target)
		return loss
	}

	net.ZeroGrads()
	loss, grad := MSELoss(net.Forward(x), target)
	if loss <= 0 {
		t.Fatalf("loss = %v, want positive", loss)
	}
	net.Backward(grad)

	params := net.Params()
	for _, pi := range []int{0, 2, 4, len(params) - 2, len(params) - 1} {
		p := params[pi]
		data := p.Value.Data()
		for _, i := range sampleIndices(rng, len(data), 3) {
			checkGrad(t, p.Name, forward, data, i, float64(p.Grad.Data()[i]), 5e-2)
		}
	}
}
