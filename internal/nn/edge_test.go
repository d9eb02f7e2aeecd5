package nn

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

func TestConv1x1KernelIsChannelMix(t *testing.T) {
	// A 1×1×1 convolution is a per-voxel channel mix; verify against a
	// hand-computed case.
	pool := parallel.NewPool(1)
	defer pool.Close()
	c := NewConv3D("c", 2, 1, 1, 1, 0, pool, rand.New(rand.NewSource(1)))
	copy(c.W.Value.Data(), []float32{2, 3}) // y = 2·x0 + 3·x1
	c.B.Value.Data()[0] = 1
	x := tensor.New(2, 2, 2, 2)
	x.Fill(1)
	y := c.Forward(x)
	for _, v := range y.Data() {
		if v != 6 { // 2+3+1
			t.Fatalf("1x1 conv value %v, want 6", v)
		}
	}
}

func TestConvNoPaddingShrinksVolume(t *testing.T) {
	pool := parallel.NewPool(1)
	defer pool.Close()
	c := NewConv3D("c", 1, 1, 3, 1, 0, pool, rand.New(rand.NewSource(2)))
	out := c.OutputShape(tensor.Shape{1, 5, 6, 7})
	want := tensor.Shape{1, 3, 4, 5}
	if !out.Equal(want) {
		t.Errorf("valid conv output %v, want %v", out, want)
	}
}

func TestConvRejectsWrongChannelCount(t *testing.T) {
	pool := parallel.NewPool(1)
	defer pool.Close()
	c := NewConv3D("c", 3, 4, 3, 1, 1, pool, rand.New(rand.NewSource(3)))
	defer func() {
		if recover() == nil {
			t.Error("wrong channel count did not panic")
		}
	}()
	c.Forward(tensor.New(2, 4, 4, 4))
}

func TestConvBackwardBeforeForwardPanics(t *testing.T) {
	pool := parallel.NewPool(1)
	defer pool.Close()
	c := NewConv3D("c", 1, 1, 3, 1, 1, pool, rand.New(rand.NewSource(4)))
	defer func() {
		if recover() == nil {
			t.Error("Backward before Forward did not panic")
		}
	}()
	c.Backward(tensor.New(1, 4, 4, 4))
}

func TestConvBackwardRejectsWrongGradientShape(t *testing.T) {
	pool := parallel.NewPool(1)
	defer pool.Close()
	c := NewConv3D("c", 2, 3, 3, 2, 1, pool, rand.New(rand.NewSource(4)))
	c.Forward(tensor.New(2, 4, 4, 4)) // output is [3 2 2 2]
	for _, bad := range []tensor.Shape{{3, 4, 4, 4}, {2, 2, 2, 2}, {3, 2, 2, 1}, {24}} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "c backward expects [3 2 2 2]") {
					t.Errorf("dy shape %v: panic %q does not name the layer and expected shape", bad, msg)
				}
			}()
			c.Backward(tensor.New(bad...))
		}()
	}
}

func TestConvFLOPsHandComputed(t *testing.T) {
	pool := parallel.NewPool(1)
	defer pool.Close()
	c := NewConv3D("c", 2, 4, 3, 1, 1, pool, rand.New(rand.NewSource(5)))
	in := tensor.Shape{2, 4, 4, 4}
	// MACs: 2·27·2·4·64 = 27648; bias: 4·64 = 256.
	if got := c.FwdFLOPs(in); got != 27648+256 {
		t.Errorf("FwdFLOPs = %d, want %d", got, 27648+256)
	}
	if got := c.BwdFLOPs(in); got != 2*27648+256 {
		t.Errorf("BwdFLOPs = %d, want %d", got, 2*27648+256)
	}
}

func TestDenseFLOPsHandComputed(t *testing.T) {
	pool := parallel.NewPool(1)
	defer pool.Close()
	d := NewDense("d", 10, 4, pool, rand.New(rand.NewSource(6)))
	if got := d.FwdFLOPs(tensor.Shape{10}); got != 2*10*4+4 {
		t.Errorf("Dense FwdFLOPs = %d", got)
	}
}

func TestAvgPoolNonUnitStrideAndKernel(t *testing.T) {
	// k=3, stride=1: overlapping windows.
	p := NewAvgPool3D("p", 3, 1)
	x := tensor.New(1, 3, 3, 3)
	for i := range x.Data() {
		x.Data()[i] = float32(i)
	}
	y := p.Forward(x)
	if !y.Shape().Equal(tensor.Shape{1, 1, 1, 1}) {
		t.Fatalf("shape %v", y.Shape())
	}
	// Mean of 0..26 = 13.
	if got := y.At(0, 0, 0, 0); math.Abs(float64(got)-13) > 1e-5 {
		t.Errorf("mean = %v, want 13", got)
	}
}

func TestAvgPoolRejectsTooSmallInput(t *testing.T) {
	p := NewAvgPool3D("p", 2, 2)
	defer func() {
		if recover() == nil {
			t.Error("empty pooling output did not panic")
		}
	}()
	p.OutputShape(tensor.Shape{1, 1, 1, 1})
}

func TestLeakyReLUShapePreserved(t *testing.T) {
	l := NewLeakyReLU("a", 0.2)
	x := tensor.New(3, 2, 2, 2)
	y := l.Forward(x)
	if !y.Shape().Equal(x.Shape()) {
		t.Errorf("activation changed shape: %v -> %v", x.Shape(), y.Shape())
	}
}

func TestNetworkSummaryCountsMatchParams(t *testing.T) {
	net, _ := BuildCosmoFlow(TopologyConfig{InputDim: 16, BaseChannels: 4, Seed: 1})
	total := 0
	for _, p := range net.Params() {
		total += p.NumElements()
	}
	if total != net.ParamCount() {
		t.Errorf("ParamCount %d != summed %d", net.ParamCount(), total)
	}
	if net.ParamBytes() != 4*total {
		t.Errorf("ParamBytes %d != 4×%d", net.ParamBytes(), total)
	}
}

func TestTopologySpatialCollapseGuard(t *testing.T) {
	// InputDim 4 collapses the volume early; the builder must skip pools
	// that would empty it, and the network must still run.
	net, err := BuildCosmoFlow(TopologyConfig{InputDim: 4, BaseChannels: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	y := net.Forward(tensor.New(1, 4, 4, 4))
	if !y.Shape().Equal(tensor.Shape{3}) {
		t.Errorf("output shape %v", y.Shape())
	}
}

func TestBlockedKernelAfterOptimizerStep(t *testing.T) {
	// A 16→16 stride-1 layer (the shape the paper's channel-blocked kernel
	// takes) after a gradient step written straight into W and B: the next
	// Forward must change and must match the reference on the new weights.
	pool := parallel.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(7))
	c := NewConv3D("c", 16, 16, 3, 1, 1, pool, rng)
	x := tensor.New(16, 4, 4, 4)
	x.RandNormal(rng, 0, 1)
	y1 := c.Forward(x).Clone()
	dy := tensor.New(y1.Shape()...)
	dy.RandNormal(rng, 0, 1)
	c.Backward(dy)
	for _, p := range c.Params() {
		tensor.Axpy(-0.1, p.Grad.Data(), p.Value.Data())
	}
	y2 := c.Forward(x)
	if tensor.MaxAbsDiff(y1.Data(), y2.Data()) == 0 {
		t.Fatal("forward unchanged after an optimizer step")
	}
	if e := maxRelErr(y2.Data(), refConvForward(c, x)); e > 1e-4 {
		t.Errorf("forward after an optimizer step off by %g (stale weights?)", e)
	}
}

func TestGradientAccumulationAcrossSteps(t *testing.T) {
	// Backward must accumulate (+=) into Grad, not overwrite: two
	// backward passes without ZeroGrads double the gradient.
	pool := parallel.NewPool(1)
	defer pool.Close()
	rng := rand.New(rand.NewSource(8))
	d := NewDense("d", 4, 2, pool, rng)
	x := tensor.New(4)
	x.RandNormal(rng, 0, 1)
	dy := tensor.New(2)
	dy.RandNormal(rng, 0, 1)

	d.Forward(x)
	d.Backward(dy)
	once := append([]float32(nil), d.W.Grad.Data()...)
	d.Forward(x)
	d.Backward(dy)
	for i, v := range d.W.Grad.Data() {
		if math.Abs(float64(v-2*once[i])) > 1e-5*(1+math.Abs(float64(2*once[i]))) {
			t.Fatalf("grad[%d] = %v after two passes, want %v", i, v, 2*once[i])
		}
	}
}

// A kernel wider than the padded input has no valid position at any
// stride. At stride ≥ 2 the extent formula's truncating division used to
// turn (in+2·pad−k)/stride = −1/stride into 0, i.e. an extent of 1.
func TestConvOutDimRejectsKernelWiderThanPaddedInput(t *testing.T) {
	for _, c := range []struct{ in, k, s, p int }{
		{2, 3, 1, 0}, {2, 3, 2, 0}, {1, 3, 3, 0}, {1, 4, 2, 1}, {0, 1, 2, 0},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "exceeds padded input extent") {
					t.Errorf("convOutDim(%d,%d,%d,%d): panic %q, want a named rejection", c.in, c.k, c.s, c.p, msg)
				}
			}()
			convOutDim(c.in, c.k, c.s, c.p)
		}()
	}
	// The layer surfaces the same rejection for a too-small volume.
	pool := parallel.NewPool(1)
	defer pool.Close()
	c := NewConv3D("c", 1, 1, 3, 2, 0, pool, rand.New(rand.NewSource(9)))
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "exceeds padded input extent") {
			t.Errorf("stride-2 conv on a 2³ input: panic %q", msg)
		}
	}()
	c.OutputShape(tensor.Shape{1, 2, 2, 2})
}

// Every Flatten/Unflatten checks its buffer length before copying: a wrong
// length panics with the op name and both lengths, and leaves the buffer
// and the network untouched.
func TestFlattenUnflattenRejectWrongLengthBeforeCopying(t *testing.T) {
	net, err := BuildCosmoFlow(TopologyConfig{InputDim: 8, BaseChannels: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := net.ParamCount()
	for _, p := range net.Params() {
		p.Grad.Fill(1)
	}
	before := make([]float32, n)
	net.FlattenParams(before)
	ops := map[string]func([]float32){
		"FlattenGrads":    net.FlattenGrads,
		"UnflattenGrads":  net.UnflattenGrads,
		"FlattenParams":   net.FlattenParams,
		"UnflattenParams": net.UnflattenParams,
	}
	for name, op := range ops {
		for _, size := range []int{0, 1, n - 1, n + 1} {
			buf := make([]float32, size)
			for i := range buf {
				buf[i] = 7
			}
			func() {
				defer func() {
					want := fmt.Sprintf("nn: %s buffer length %d, want %d", name, size, n)
					if msg, _ := recover().(string); msg != want {
						t.Errorf("%s(len %d): panic %q, want %q", name, size, msg, want)
					}
				}()
				op(buf)
			}()
			for i, v := range buf {
				if v != 7 {
					t.Fatalf("%s(len %d) wrote buf[%d] = %v before rejecting", name, size, i, v)
				}
			}
		}
	}
	after := make([]float32, n)
	net.FlattenParams(after)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("a rejected call changed parameter %d: %v -> %v", i, before[i], after[i])
		}
	}
	for _, p := range net.Params() {
		for _, g := range p.Grad.Data() {
			if g != 1 {
				t.Fatalf("a rejected call changed a gradient of %s", p.Name)
			}
		}
	}
}
