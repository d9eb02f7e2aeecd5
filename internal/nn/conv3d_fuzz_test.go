package nn

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cpufeat"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// FuzzConvGeometry drives Conv3D over random small geometries: InC 1–3 or
// 16, OutC 1–13 or 16 (every OutC%4 tail; below one octet of output
// channels, one, one plus a tail of 1–5, and the paper's 16→16), depth
// and height 1–9, width 1–30, kernel 1–4, stride 1–2, padding 0–2, batch
// 1–3. A kernel wider than a padded extent must be refused with
// convOutDim's named panic. Any other geometry must agree with the float64
// loop nests — Forward to 1e-4 of refConvForward, and Backward to 1e-4 of
// the magnitude of refConvBackward's summed terms — every sample of a
// batched forward must be bit-equal to Forward on that sample alone, and
// on an AVX2 CPU the vector Backward must be bit-equal to the Go one. The
// seeds are the stride-2 short input whose (−1)/2 extent once truncated to
// 1, a width-1 volume, k=4 without padding, a 1³ volume, an odd OutC, three
// random shapes, 16→16 layers at widths 27 and 29, and a stride-2 layer
// with OutC 12, an octet plus a tail.
func FuzzConvGeometry(f *testing.F) {
	pool := parallel.NewPool(2)
	f.Cleanup(pool.Close)

	// inC, outC, d, h, w, k, stride, pad, batch, seed
	f.Add(uint8(1), uint8(2), uint8(1), uint8(5), uint8(5), uint8(3), uint8(2), uint8(0), uint8(2), int64(1))
	f.Add(uint8(2), uint8(3), uint8(4), uint8(3), uint8(1), uint8(3), uint8(1), uint8(1), uint8(2), int64(2))
	f.Add(uint8(2), uint8(2), uint8(5), uint8(4), uint8(6), uint8(4), uint8(2), uint8(0), uint8(3), int64(3))
	f.Add(uint8(3), uint8(4), uint8(1), uint8(1), uint8(1), uint8(3), uint8(1), uint8(1), uint8(2), int64(4))
	f.Add(uint8(2), uint8(5), uint8(3), uint8(4), uint8(5), uint8(3), uint8(1), uint8(1), uint8(3), int64(5))
	f.Add(uint8(1), uint8(1), uint8(9), uint8(2), uint8(7), uint8(2), uint8(2), uint8(2), uint8(1), int64(6))
	f.Add(uint8(3), uint8(3), uint8(6), uint8(7), uint8(2), uint8(1), uint8(1), uint8(0), uint8(2), int64(7))
	f.Add(uint8(2), uint8(4), uint8(8), uint8(5), uint8(3), uint8(3), uint8(2), uint8(1), uint8(3), int64(8))
	f.Add(uint8(16), uint8(16), uint8(2), uint8(2), uint8(27), uint8(3), uint8(1), uint8(1), uint8(2), int64(9))
	f.Add(uint8(16), uint8(16), uint8(1), uint8(2), uint8(29), uint8(3), uint8(1), uint8(1), uint8(3), int64(10))
	f.Add(uint8(3), uint8(12), uint8(5), uint8(4), uint8(9), uint8(3), uint8(2), uint8(1), uint8(2), int64(11))

	f.Fuzz(func(t *testing.T, inC, outC, d, h, w, k, stride, pad, batch uint8, seed int64) {
		// Map each byte into [lo, hi], leaving in-range values (the seeds) as
		// they are.
		in := func(v uint8, lo, hi int) int {
			n := hi - lo + 1
			return lo + ((int(v)-lo)%n+n)%n
		}
		// A channel byte maps onto 1–hi or 16, leaving those values as
		// they are.
		chans := func(v uint8, hi int) int {
			if v == 16 {
				return 16
			}
			if n := in(v, 1, hi+1); n <= hi {
				return n
			}
			return 16
		}
		ic, oc := chans(inC, 3), chans(outC, 13)
		shape := tensor.Shape{ic, in(d, 1, 9), in(h, 1, 9), in(w, 1, 30)}
		kk, s, p := in(k, 1, 4), in(stride, 1, 2), in(pad, 0, 2)

		rng := rand.New(rand.NewSource(seed))
		c := NewConv3D("c", ic, oc, kk, s, p, pool, rng)
		xs := randBatch(shape, in(batch, 1, 3), seed)

		if min(shape[1], shape[2], shape[3])+2*p < kk {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "exceeds padded input extent") {
					t.Fatalf("%v k%d s%d p%d: want convOutDim's panic, got %q", shape, kk, s, p, msg)
				}
			}()
			c.Forward(xs[0])
			t.Fatalf("%v k%d s%d p%d: Forward accepted a kernel wider than the padded input", shape, kk, s, p)
		}

		const tol = 1e-4
		ys := c.inferBatch(xs, &batchCtx{buf: tensor.NewBufPool()})
		var y *tensor.Tensor
		for i := len(xs) - 1; i >= 0; i-- { // xs[0] last: Backward reads its cached input
			y = c.Forward(xs[i])
			if e := maxRelErr(y.Data(), refConvForward(c, xs[i])); e > tol {
				t.Fatalf("%v k%d s%d p%d: Forward sample %d relative error %g", shape, kk, s, p, i, e)
			}
			for j, v := range ys[i].Data() {
				if v != y.Data()[j] {
					t.Fatalf("%v k%d s%d p%d: batched sample %d out[%d] = %v, Forward = %v", shape, kk, s, p, i, j, v, y.Data()[j])
				}
			}
		}

		dy := tensor.New(y.Shape()...)
		dy.RandNormal(rng, 0, 1)
		dx := c.Backward(dy)
		dW, dB, dX := refConvBackward(c, xs[0], dy)
		// Float32 accumulation error scales with the sum of |terms|, which
		// a gradient that cancels to near zero (a k=1 dW element is one
		// long dot product) hides. So the error is measured against the
		// same loop nest over |W|, |x| and |dy|.
		mag := NewConv3D("mag", ic, oc, kk, s, p, pool, rand.New(rand.NewSource(0)))
		ax, ady := tensor.New(shape...), tensor.New(dy.Shape()...)
		for _, a := range [][2][]float32{{mag.W.Value.Data(), c.W.Value.Data()}, {ax.Data(), xs[0].Data()}, {ady.Data(), dy.Data()}} {
			for i, v := range a[1] {
				a[0][i] = float32(math.Abs(float64(v)))
			}
		}
		mW, mB, mX := refConvBackward(mag, ax, ady)
		for _, r := range []struct {
			name      string
			got       []float32
			want, mag []float64
		}{{"dW", c.W.Grad.Data(), dW, mW}, {"dB", c.B.Grad.Data(), dB, mB}, {"dx", dx.Data(), dX, mX}} {
			var worst, scale float64
			for i, w := range r.want {
				worst = math.Max(worst, math.Abs(float64(r.got[i])-w))
				scale = math.Max(scale, r.mag[i])
			}
			if e := worst / (scale + 1e-30); e > tol {
				t.Fatalf("%v k%d s%d p%d: Backward %s relative error %g", shape, kk, s, p, r.name, e)
			}
		}

		if !cpufeat.AVX2 {
			return
		}
		// The Backward above ran on the vector bodies: the Go ones must give
		// the same bits.
		got := [][]float32{dx.Data(), append([]float32(nil), c.W.Grad.Data()...), append([]float32(nil), c.B.Grad.Data()...)}
		setVectorConv(t, false)
		c.W.Grad.Zero()
		c.B.Grad.Zero()
		want := [][]float32{c.Backward(dy).Data(), c.W.Grad.Data(), c.B.Grad.Data()}
		for j, what := range []string{"dx", "dW", "dB"} {
			for i := range want[j] {
				if math.Float32bits(got[j][i]) != math.Float32bits(want[j][i]) {
					t.Fatalf("%v k%d s%d p%d: vector Backward %s[%d] = %v, Go body %v", shape, kk, s, p, what, i, got[j][i], want[j][i])
				}
			}
		}
	})
}
