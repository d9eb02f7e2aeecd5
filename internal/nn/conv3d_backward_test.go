package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// refConvBackward is the float64 brute-force loop nest the backward kernels
// are checked against: every (oc, ic, z, y, x, kd, kh, kw) combination,
// bounds tested per element, nothing hoisted or blocked.
func refConvBackward(c *Conv3D, x, dy *tensor.Tensor) (dW, dB, dX []float64) {
	in, out := x.Shape(), dy.Shape()
	id, ih, iw := in[1], in[2], in[3]
	od, oh, ow := out[1], out[2], out[3]
	k, s, p := c.K, c.Stride, c.Pad
	xd, dyd, wd := x.Data(), dy.Data(), c.W.Value.Data()
	dW = make([]float64, len(wd))
	dB = make([]float64, c.OutC)
	dX = make([]float64, len(xd))
	for oc := 0; oc < c.OutC; oc++ {
		for z := 0; z < od; z++ {
			for y := 0; y < oh; y++ {
				for xx := 0; xx < ow; xx++ {
					g := float64(dyd[((oc*od+z)*oh+y)*ow+xx])
					dB[oc] += g
					for ic := 0; ic < c.InC; ic++ {
						for kd := 0; kd < k; kd++ {
							for kh := 0; kh < k; kh++ {
								for kw := 0; kw < k; kw++ {
									zi, yi, xi := z*s+kd-p, y*s+kh-p, xx*s+kw-p
									if zi < 0 || zi >= id || yi < 0 || yi >= ih || xi < 0 || xi >= iw {
										continue
									}
									wi := (((oc*c.InC+ic)*k+kd)*k+kh)*k + kw
									xo := ((ic*id+zi)*ih+yi)*iw + xi
									dW[wi] += g * float64(xd[xo])
									dX[xo] += g * float64(wd[wi])
								}
							}
						}
					}
				}
			}
		}
	}
	return dW, dB, dX
}

// maxRelErr returns max |got-want| / (|want|_∞ + tiny): error relative to
// the largest reference magnitude, so near-zero elements of an otherwise
// O(1) gradient do not dominate.
func maxRelErr(got []float32, want []float64) float64 {
	var scale, worst float64
	for _, w := range want {
		scale = math.Max(scale, math.Abs(w))
	}
	for i, w := range want {
		worst = math.Max(worst, math.Abs(float64(got[i])-w))
	}
	return worst / (scale + 1e-30)
}

// convBackwardCase runs Forward+Backward on fresh random data and returns
// the gradients next to the brute-force reference.
func convBackwardCase(seed int64, inC, outC, d, h, w, k, stride, pad, workers int) (c *Conv3D, dx *tensor.Tensor, dW, dB, dX []float64) {
	rng := rand.New(rand.NewSource(seed))
	pool := parallel.NewPool(workers)
	defer pool.Close()
	c = NewConv3D("c", inC, outC, k, stride, pad, pool, rng)
	x := tensor.New(inC, d, h, w)
	x.RandNormal(rng, 0, 1)
	dy := tensor.New(c.Forward(x).Shape()...)
	dy.RandNormal(rng, 0, 1)
	dx = c.Backward(dy)
	dW, dB, dX = refConvBackward(c, x, dy)
	return c, dx, dW, dB, dX
}

func TestConvBackwardMatchesBruteForce(t *testing.T) {
	type geom struct{ inC, outC, d, h, w, k, stride, pad int }
	// The shapes the topology produces, plus the corners the row kernels
	// special-case: InC = 1, odd OutC (unpaired tail), widths below the
	// kernel extent, 1³ volumes, and channel counts off the 16-multiple.
	cases := []geom{
		{1, 8, 6, 5, 9, 3, 1, 1},
		{16, 32, 3, 4, 5, 3, 1, 1},
		{16, 16, 1, 1, 1, 3, 1, 1},
		{17, 3, 1, 1, 1, 3, 2, 1},
		{4, 5, 2, 2, 2, 3, 2, 1},
		{3, 2, 4, 3, 2, 3, 1, 1},
		{2, 3, 5, 4, 3, 3, 1, 0},
		{2, 2, 4, 6, 1, 1, 1, 0},
		{3, 4, 5, 3, 4, 1, 2, 1},
	}
	rng := rand.New(rand.NewSource(20180612))
	for len(cases) < 40 {
		g := geom{
			inC: 1 + rng.Intn(20), outC: 1 + rng.Intn(20),
			d: 1 + rng.Intn(6), h: 1 + rng.Intn(6), w: 1 + rng.Intn(9),
			k: 1 + 2*rng.Intn(2), stride: 1 + rng.Intn(2), pad: rng.Intn(2),
		}
		if min(g.d, g.h, g.w)+2*g.pad < g.k {
			continue // no output voxel
		}
		cases = append(cases, g)
	}
	const tol = 1e-4
	for i, g := range cases {
		workers := []int{1, 2, 5}[i%3]
		name := fmt.Sprintf("%d->%d_%dx%dx%d_k%ds%dp%d_w%d", g.inC, g.outC, g.d, g.h, g.w, g.k, g.stride, g.pad, workers)
		c, dx, dW, dB, dX := convBackwardCase(int64(i), g.inC, g.outC, g.d, g.h, g.w, g.k, g.stride, g.pad, workers)
		if e := maxRelErr(c.W.Grad.Data(), dW); e > tol {
			t.Errorf("%s: dW relative error %g", name, e)
		}
		if e := maxRelErr(c.B.Grad.Data(), dB); e > tol {
			t.Errorf("%s: dB relative error %g", name, e)
		}
		if e := maxRelErr(dx.Data(), dX); e > tol {
			t.Errorf("%s: dx relative error %g", name, e)
		}
	}
}

// The backward-data kernel reads W.Value directly, so a weight update is
// visible to the next Backward with or without InvalidateWeights — there is
// no second weight pack to go stale.
func TestConvBackwardDataSeesWeightUpdate(t *testing.T) {
	for _, invalidate := range []bool{true, false} {
		rng := rand.New(rand.NewSource(42))
		pool := parallel.NewPool(1)
		c := NewConv3D("c", 16, 16, 3, 1, 1, pool, rng)
		x := tensor.New(16, 4, 4, 4)
		x.RandNormal(rng, 0, 1)
		dy := tensor.New(c.Forward(x).Shape()...)
		dy.RandNormal(rng, 0, 1)
		c.Backward(dy)
		for i := range c.W.Value.Data() {
			c.W.Value.Data()[i] *= -0.5
		}
		if invalidate {
			c.InvalidateWeights()
		}
		c.Forward(x)
		dx := c.Backward(dy)
		_, _, want := refConvBackward(c, x, dy)
		if e := maxRelErr(dx.Data(), want); e > 1e-4 {
			t.Errorf("invalidate=%v: dx after weight update off by %g (stale weights?)", invalidate, e)
		}
		pool.Close()
	}
}

// Gradients accumulate (+=) across Backward calls, including the taps a
// small volume never reaches, which must stay untouched.
func TestConvBackwardAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pool := parallel.NewPool(2)
	defer pool.Close()
	c := NewConv3D("c", 3, 5, 3, 2, 1, pool, rng)
	x := tensor.New(3, 2, 2, 2)
	x.RandNormal(rng, 0, 1)
	dy := tensor.New(c.Forward(x).Shape()...)
	dy.RandNormal(rng, 0, 1)
	c.W.Grad.Fill(7)
	c.B.Grad.Fill(7)
	c.Backward(dy)
	dW, dB, _ := refConvBackward(c, x, dy)
	for i, w := range dW {
		if got := float64(c.W.Grad.Data()[i]); math.Abs(got-(7+w)) > 1e-4*(1+math.Abs(w)) {
			t.Fatalf("dW[%d] = %v, want 7 + %v", i, got, w)
		}
	}
	for i, b := range dB {
		if got := float64(c.B.Grad.Data()[i]); math.Abs(got-(7+b)) > 1e-4*(1+math.Abs(b)) {
			t.Fatalf("dB[%d] = %v, want 7 + %v", i, got, b)
		}
	}
}
