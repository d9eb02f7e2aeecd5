package nn

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

func TestConvOutDim(t *testing.T) {
	cases := []struct{ in, k, s, p, want int }{
		{128, 3, 1, 1, 128},
		{128, 3, 2, 1, 64},
		{4, 3, 1, 1, 4},
		{1, 3, 2, 1, 1},
		{5, 3, 1, 0, 3},
	}
	for _, c := range cases {
		if got := convOutDim(c.in, c.k, c.s, c.p); got != c.want {
			t.Errorf("convOutDim(%d,%d,%d,%d) = %d, want %d", c.in, c.k, c.s, c.p, got, c.want)
		}
	}
}

func TestBlockedMatchesDirectForward(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pool := parallel.NewPool(2)
	defer pool.Close()
	for _, dims := range [][2]int{{16, 16}, {16, 32}, {32, 16}} {
		c := NewConv3D("c", dims[0], dims[1], 3, 1, 1, pool, rng)
		c.B.Value.RandNormal(rng, 0, 0.3)
		x := tensor.New(dims[0], 6, 5, 7) // non-cubic, exercises remainders
		x.RandNormal(rng, 0, 1)
		if !c.useBlocked() {
			t.Fatalf("blocked kernel should apply for %v", dims)
		}
		yBlocked := c.Forward(x)
		c.forceNaive = true
		yDirect := c.Forward(x)
		if d := tensor.MaxAbsDiff(yBlocked.Data(), yDirect.Data()); d > 1e-3 {
			t.Errorf("ic=%d oc=%d: blocked vs direct max diff %g", dims[0], dims[1], d)
		}
	}
}

func TestBlockedKernelWideWidth(t *testing.T) {
	// Width > 28 exercises the width-block remainder logic of Algorithm 1.
	rng := rand.New(rand.NewSource(22))
	pool := parallel.NewPool(4)
	defer pool.Close()
	c := NewConv3D("c", 16, 16, 3, 1, 1, pool, rng)
	x := tensor.New(16, 2, 2, 61)
	x.RandNormal(rng, 0, 1)
	yB := c.Forward(x)
	c.forceNaive = true
	yD := c.Forward(x)
	if d := tensor.MaxAbsDiff(yB.Data(), yD.Data()); d > 1e-3 {
		t.Errorf("wide width: blocked vs direct max diff %g", d)
	}
}

func TestConvKnownValue(t *testing.T) {
	// 1×1 channel, all-ones 3³ kernel, no bias: interior output voxel of a
	// constant-1 input counts the 27 kernel taps.
	pool := parallel.NewPool(1)
	defer pool.Close()
	rng := rand.New(rand.NewSource(23))
	c := NewConv3D("c", 1, 1, 3, 1, 1, pool, rng)
	c.W.Value.Fill(1)
	c.InvalidateWeights()
	c.B.Value.Zero()
	x := tensor.New(1, 4, 4, 4)
	x.Fill(1)
	y := c.Forward(x)
	if got := y.At(0, 1, 1, 1); got != 27 {
		t.Errorf("interior voxel = %v, want 27", got)
	}
	// Corner voxel sees only the 2×2×2 in-bounds taps.
	if got := y.At(0, 0, 0, 0); got != 8 {
		t.Errorf("corner voxel = %v, want 8", got)
	}
}

func TestConvThreadCountInvariance(t *testing.T) {
	for _, stride := range []int{1, 2} {
		rng := rand.New(rand.NewSource(24))
		x := tensor.New(3, 6, 6, 6)
		x.RandNormal(rng, 0, 1)
		var dy *tensor.Tensor
		var ref [][]float32 // y, dW, dB, dx from the single-worker run
		for _, workers := range []int{1, 2, 8} {
			pool := parallel.NewPool(workers)
			c := NewConv3D("c", 3, 5, 3, stride, 1, pool, rand.New(rand.NewSource(99)))
			y := c.Forward(x)
			if dy == nil {
				dy = tensor.New(y.Shape()...)
				dy.RandNormal(rng, 0, 1)
			}
			dx := c.Backward(dy)
			got := [][]float32{y.Data(), c.W.Grad.Data(), c.B.Grad.Data(), dx.Data()}
			if ref == nil {
				ref = got
			}
			for i, name := range []string{"y", "dW", "dB", "dx"} {
				if d := tensor.MaxAbsDiff(ref[i], got[i]); d != 0 {
					t.Errorf("stride=%d workers=%d: %s differs from single-thread by %g", stride, workers, name, d)
				}
			}
			pool.Close()
		}
	}
}

// BackwardWithHook skips the first layer's input gradient; everything the
// trainer reads — every parameter gradient, and one hook call per layer in
// reverse order, layer 0 included (OverlapComm ships conv1's gradients from
// it) — must be exactly what chaining Layer.Backward by hand produces.
func TestBackwardWithHookMatchesLayerChain(t *testing.T) {
	pool := parallel.NewPool(2)
	defer pool.Close()
	build := func() *Network {
		net, err := BuildCosmoFlow(TopologyConfig{InputDim: 8, BaseChannels: 2, Seed: 5, Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	x := randInput(build(), 6)
	target := []float32{0.3, 0.8, 0.9}

	byHand := build()
	_, g := MSELoss(byHand.Forward(x), target)
	for i := len(byHand.Layers) - 1; i >= 0; i-- {
		g = byHand.Layers[i].Backward(g)
	}

	hooked := build()
	_, g = MSELoss(hooked.Forward(x), target)
	var fired []string
	hooked.BackwardWithHook(g, func(l Layer) { fired = append(fired, l.Name()) })

	names := hooked.LayerNames()
	if len(fired) != len(names) {
		t.Fatalf("hook fired %d times for %d layers", len(fired), len(names))
	}
	for i, name := range fired {
		if want := names[len(names)-1-i]; name != want {
			t.Errorf("hook call %d was for %s, want %s", i, name, want)
		}
	}
	want := byHand.Params()
	for i, p := range hooked.Params() {
		if d := tensor.MaxAbsDiff(p.Grad.Data(), want[i].Grad.Data()); d != 0 {
			t.Errorf("%s: gradient differs from the hand-chained backward by %g", p.Name, d)
		}
	}
}

func TestAvgPoolKnownValue(t *testing.T) {
	p := NewAvgPool3D("p", 2, 2)
	x := tensor.New(1, 2, 2, 2)
	for i := range x.Data() {
		x.Data()[i] = float32(i)
	}
	y := p.Forward(x)
	if !y.Shape().Equal(tensor.Shape{1, 1, 1, 1}) {
		t.Fatalf("shape %v", y.Shape())
	}
	if got := y.At(0, 0, 0, 0); got != 3.5 {
		t.Errorf("mean = %v, want 3.5", got)
	}
}

func TestAvgPoolBackwardConservesGradient(t *testing.T) {
	p := NewAvgPool3D("p", 2, 2)
	x := tensor.New(1, 4, 4, 4)
	p.Forward(x)
	dy := tensor.New(1, 2, 2, 2)
	dy.Fill(1)
	dx := p.Backward(dy)
	if math.Abs(dx.Sum()-dy.Sum()) > 1e-5 {
		t.Errorf("gradient mass %v in, %v out", dy.Sum(), dx.Sum())
	}
}

func TestDenseKnownValue(t *testing.T) {
	pool := parallel.NewPool(1)
	defer pool.Close()
	d := NewDense("d", 2, 2, pool, rand.New(rand.NewSource(25)))
	copy(d.W.Value.Data(), []float32{1, 2, 3, 4})
	copy(d.B.Value.Data(), []float32{10, 20})
	y := d.Forward(tensor.FromData([]float32{1, 1}, 2))
	if y.At(0) != 13 || y.At(1) != 27 {
		t.Errorf("y = %v, want [13 27]", y.Data())
	}
}

func TestLeakyReLUValues(t *testing.T) {
	l := NewLeakyReLU("a", 0.1)
	y := l.Forward(tensor.FromData([]float32{-2, 0, 3}, 3))
	want := []float32{-0.2, 0, 3}
	for i := range want {
		if math.Abs(float64(y.Data()[i]-want[i])) > 1e-6 {
			t.Errorf("y = %v, want %v", y.Data(), want)
		}
	}
	if NewLeakyReLU("b", 0).Alpha != DefaultLeakyAlpha {
		t.Error("zero alpha should select default")
	}
}

func TestMSELossKnownValue(t *testing.T) {
	pred := tensor.FromData([]float32{1, 2, 3}, 3)
	loss, grad := MSELoss(pred, []float32{1, 1, 1})
	// ((0)²+(1)²+(2)²)/3 = 5/3
	if math.Abs(loss-5.0/3.0) > 1e-6 {
		t.Errorf("loss = %v, want 5/3", loss)
	}
	wantGrad := []float32{0, 2.0 / 3, 4.0 / 3}
	for i := range wantGrad {
		if math.Abs(float64(grad.Data()[i]-wantGrad[i])) > 1e-6 {
			t.Errorf("grad = %v, want %v", grad.Data(), wantGrad)
		}
	}
}

func TestMAE(t *testing.T) {
	pred := tensor.FromData([]float32{1, -1}, 2)
	if got := MAE(pred, []float32{0, 0}); math.Abs(got-1) > 1e-9 {
		t.Errorf("MAE = %v, want 1", got)
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	f := NewFlatten("f")
	x := tensor.New(2, 3, 4, 5)
	y := f.Forward(x)
	if !y.Shape().Equal(tensor.Shape{120}) {
		t.Fatalf("flat shape %v", y.Shape())
	}
	dx := f.Backward(tensor.New(120))
	if !dx.Shape().Equal(x.Shape()) {
		t.Errorf("backward shape %v, want %v", dx.Shape(), x.Shape())
	}
}

func TestTopologyOutputIsThreeParams(t *testing.T) {
	for _, dim := range []int{8, 16, 32} {
		net, err := BuildCosmoFlow(TopologyConfig{InputDim: dim, BaseChannels: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.New(1, dim, dim, dim)
		y := net.Forward(x)
		if !y.Shape().Equal(tensor.Shape{3}) {
			t.Errorf("dim=%d: output shape %v, want [3]", dim, y.Shape())
		}
	}
}

func TestTopologyLayerStructure(t *testing.T) {
	net, err := BuildCosmoFlow(TopologyConfig{InputDim: 32, BaseChannels: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(net.ConvLayers()); got != 7 {
		t.Errorf("conv layers = %d, want 7 (§III-A)", got)
	}
	dense := 0
	pools := 0
	for _, l := range net.Layers {
		switch l.(type) {
		case *Dense:
			dense++
		case *AvgPool3D:
			pools++
		}
	}
	if dense != 3 {
		t.Errorf("FC layers = %d, want 3", dense)
	}
	if pools != 3 {
		t.Errorf("pooling layers = %d, want 3", pools)
	}
	// Channels must all be multiples of 16 with base 16 (§III-A).
	for _, c := range net.ConvLayers() {
		if c.OutC%16 != 0 {
			t.Errorf("%s output channels %d not a multiple of 16", c.Name(), c.OutC)
		}
	}
}

func TestPaperTopologyBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-size topology in -short mode")
	}
	net, err := BuildCosmoFlow(PaperTopology())
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports "slightly more than seven million" parameters and
	// 28.15 MB of weights (§V-A). Our Fig.-2 reconstruction must land in
	// the same ballpark; the exact figure is recorded in EXPERIMENTS.md.
	params := net.ParamCount()
	if params < 4_000_000 || params > 10_000_000 {
		t.Errorf("parameter count %d outside the paper's ballpark", params)
	}
	fwd, bwd := net.TotalFLOPs()
	total := fwd + bwd
	// Paper: 69.33 Gflop per sample, forward+backward (§V-A).
	if total < 25e9 || total > 120e9 {
		t.Errorf("total FLOPs %g outside the paper's ballpark", float64(total))
	}
	if bwd < fwd || bwd > 3*fwd {
		t.Errorf("bwd/fwd ratio %g implausible", float64(bwd)/float64(fwd))
	}
}

func TestNetworkGradFlattenRoundTrip(t *testing.T) {
	net, err := BuildCosmoFlow(TopologyConfig{InputDim: 8, BaseChannels: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	for _, p := range net.Params() {
		p.Grad.RandNormal(rng, 0, 1)
	}
	buf := make([]float32, net.GradSize())
	net.FlattenGrads(buf)
	want := append([]float32(nil), buf...)
	net.ZeroGrads()
	net.UnflattenGrads(want)
	net.FlattenGrads(buf)
	if d := tensor.MaxAbsDiff(buf, want); d != 0 {
		t.Errorf("grad flatten round trip diff %g", d)
	}
}

func TestNetworkParamBroadcastRoundTrip(t *testing.T) {
	a, _ := BuildCosmoFlow(TopologyConfig{InputDim: 8, BaseChannels: 2, Seed: 5})
	b, _ := BuildCosmoFlow(TopologyConfig{InputDim: 8, BaseChannels: 2, Seed: 999})
	buf := make([]float32, a.ParamCount())
	a.FlattenParams(buf)
	b.UnflattenParams(buf)
	x := tensor.New(1, 8, 8, 8)
	x.RandNormal(rand.New(rand.NewSource(32)), 0, 1)
	ya := a.Forward(x)
	yb := b.Forward(x)
	if d := tensor.MaxAbsDiff(ya.Data(), yb.Data()); d > 1e-6 {
		t.Errorf("after param broadcast outputs differ by %g", d)
	}
}

func TestSummaryAndPerLayerFLOPs(t *testing.T) {
	net, _ := BuildCosmoFlow(TopologyConfig{InputDim: 16, BaseChannels: 2, Seed: 1})
	s := net.Summary()
	if !strings.Contains(s, "conv1") || !strings.Contains(s, "fc3") {
		t.Errorf("summary missing layers:\n%s", s)
	}
	fl := net.PerLayerFLOPs()
	if len(fl) != len(net.Layers) {
		t.Fatalf("per-layer FLOPs length %d", len(fl))
	}
	var fwd int64
	for _, f := range fl {
		fwd += f.Fwd
	}
	tf, _ := net.TotalFLOPs()
	if fwd != tf {
		t.Errorf("per-layer fwd sum %d != total %d", fwd, tf)
	}
}

func TestTopologyValidation(t *testing.T) {
	if _, err := BuildCosmoFlow(TopologyConfig{InputDim: 12, BaseChannels: 4}); err == nil {
		t.Error("non-power-of-two input accepted")
	}
	if _, err := BuildCosmoFlow(TopologyConfig{InputDim: 16, BaseChannels: 0}); err == nil {
		t.Error("zero base channels accepted")
	}
}

func TestTrainingStepReducesLossOnFixedSample(t *testing.T) {
	// One sample, repeated plain-SGD steps: loss must fall. This guards
	// the full forward/backward integration before the optimizer package
	// exists.
	net, err := BuildCosmoFlow(TopologyConfig{InputDim: 8, BaseChannels: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(33))
	x := tensor.New(1, 8, 8, 8)
	x.RandNormal(rng, 0, 1)
	target := []float32{0.3, 0.6, 0.9}

	// Start the output biases in the positive (linear) regime of the final
	// leaky ReLU; an all-zero start trains 100× slower through the α=0.01
	// negative slope.
	params := net.Params()
	params[len(params)-1].Value.Fill(0.1)

	first, _ := MSELoss(net.Forward(x), target)
	loss := first
	for step := 0; step < 150; step++ {
		net.ZeroGrads()
		pred := net.Forward(x)
		var grad *tensor.Tensor
		loss, grad = MSELoss(pred, target)
		net.Backward(grad)
		for _, p := range net.Params() {
			tensor.Axpy(-0.02, p.Grad.Data(), p.Value.Data())
		}
		net.InvalidateWeights()
	}
	if loss >= first*0.5 {
		t.Errorf("loss %g -> %g after 150 SGD steps; not learning", first, loss)
	}
}
