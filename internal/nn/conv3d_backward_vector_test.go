package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cpufeat"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// specialFloats are the values the vector-versus-Go tests mix into their
// operands: ±0, subnormals, ±Inf and ±MaxFloat32 (whose products overflow).
var specialFloats = []float32{
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, -3e-39,
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.MaxFloat32, -math.MaxFloat32,
}

// valueDraws returns the two operand distributions of the vector tests:
// normal values, and normal values mixed two to one with specialFloats.
func valueDraws(rng *rand.Rand) map[string]func() float32 {
	return map[string]func() float32{
		"random": func() float32 { return float32(rng.NormFloat64()) },
		"special": func() float32 {
			if rng.Intn(3) == 0 {
				return float32(rng.NormFloat64())
			}
			return specialFloats[rng.Intn(len(specialFloats))]
		},
	}
}

// backwardOn runs c.Backward(dy) on x with vectorConv set to vector, from
// zeroed gradients, and returns dx, dW and dB.
func backwardOn(t testing.TB, c *Conv3D, x, dy *tensor.Tensor, vector bool) (dx, dW, dB []float32) {
	setVectorConv(t, vector)
	c.W.Grad.Zero()
	c.B.Grad.Zero()
	c.Forward(x)
	dx = c.Backward(dy).Data()
	return dx, append([]float32(nil), c.W.Grad.Data()...), append([]float32(nil), c.B.Grad.Data()...)
}

// requireBackwardBodiesEqual requires c's Backward to give bit-equal dx,
// dW and dB on the vector bodies and on the Go ones.
func requireBackwardBodiesEqual(t *testing.T, name string, c *Conv3D, x, dy *tensor.Tensor) {
	t.Helper()
	gx, gw, gb := backwardOn(t, c, x, dy, true)
	wx, ww, wb := backwardOn(t, c, x, dy, false)
	requireBits(t, name+" dx", gx, wx)
	requireBits(t, name+" dW", gw, ww)
	requireBits(t, name+" dB", gb, wb)
}

// fillFrom sets every element of the tensors from draw.
func fillFrom(draw func() float32, ts ...*tensor.Tensor) {
	for _, t := range ts {
		for i := range t.Data() {
			t.Data()[i] = draw()
		}
	}
}

// TestConvBackwardVectorMatchesGo runs Backward on the vector bodies and
// on the Go ones for widths 1–40 and requires every dx, dW and dB bit to
// match, on random values and on values mixed with ±0, subnormals, ±Inf
// and ±MaxFloat32 in weights, input and dy alike. The geometries take
// every vector path: for dx, width in lanes at stride 1 (rows of 4 and
// more, with the n%4 tail on the Go body) at padding 0, 1 and 2, and input
// channels in lanes (narrower rows and stride 2, with a channel tail past
// the last octet), most with an OutC%4 tail, whose zero weights still
// multiply real dy; for dW and dB, output channels in lanes at stride 1
// and 2 with OutC below one octet, one octet (8), two (16) and an octet
// plus a tail (12), whose zero lanes are discarded.
func TestConvBackwardVectorMatchesGo(t *testing.T) {
	requireAVX2(t)
	pool := parallel.NewPool(2)
	defer pool.Close()
	type geom struct{ inC, outC, d, h, k, stride, pad int }
	geoms := []geom{
		{3, 5, 2, 3, 3, 1, 1},
		{9, 6, 2, 2, 3, 1, 1},
		{9, 5, 3, 2, 3, 2, 1},
		{2, 3, 3, 3, 3, 1, 0},
		{2, 7, 2, 2, 3, 1, 2},
		{3, 8, 2, 2, 3, 1, 1},
		{2, 8, 3, 2, 3, 2, 1},
		{2, 16, 2, 1, 3, 1, 1},
		{17, 16, 1, 2, 3, 2, 1},
		{4, 12, 2, 2, 3, 1, 1},
		{3, 12, 3, 2, 3, 2, 1},
	}
	rng := rand.New(rand.NewSource(66))
	for name, draw := range valueDraws(rng) {
		for n := 1; n <= 40; n++ {
			for _, g := range geoms {
				if min(g.d, g.h, n)+2*g.pad < g.k {
					continue
				}
				c := NewConv3D("c", g.inC, g.outC, g.k, g.stride, g.pad, pool, rng)
				x := tensor.New(g.inC, g.d, g.h, n)
				dy := tensor.New(c.OutputShape(x.Shape())...)
				fillFrom(draw, c.W.Value, x, dy)
				requireBackwardBodiesEqual(t, fmt.Sprintf("%s %+v w=%d", name, g, n), c, x, dy)
			}
		}
	}
}

// TestConvBackwardNegativeZeroProducts gives every dW and dB chain only −0
// products (dy −0, x positive or a padded +0) and starts the gradients at
// −0: each chain starts at +0, so +0 + (−0) = +0 and every gradient must
// read +0, on either body. Had the float64 totals started from the first
// row's sum, and the row sums from their first product, dW would stay
// −0; dB likewise. dx (−0 times weights of either sign, started at +0)
// must read +0 too. Every geometry visits all 27 taps, so no dW element is left
// untouched; one has rows a single element wide.
func TestConvBackwardNegativeZeroProducts(t *testing.T) {
	pool := parallel.NewPool(2)
	defer pool.Close()
	negZero := float32(math.Copysign(0, -1))
	bodies := []bool{false}
	if cpufeat.AVX2 {
		bodies = append(bodies, true)
	}
	type geom struct{ inC, outC, d, w, stride int }
	for _, g := range []geom{{2, 12, 2, 1, 1}, {3, 8, 3, 5, 1}, {2, 5, 4, 4, 2}} {
		c := NewConv3D("c", g.inC, g.outC, 3, g.stride, 1, pool, rand.New(rand.NewSource(1)))
		x := tensor.New(g.inC, g.d, g.d, g.w)
		x.Fill(1.5)
		dy := tensor.New(c.OutputShape(x.Shape())...)
		dy.Fill(negZero)
		for _, vector := range bodies {
			setVectorConv(t, vector)
			c.W.Grad.Fill(negZero)
			c.B.Grad.Fill(negZero)
			c.Forward(x)
			dx := c.Backward(dy)
			for what, v := range map[string][]float32{"dW": c.W.Grad.Data(), "dB": c.B.Grad.Data(), "dx": dx.Data()} {
				for i, f := range v {
					if math.Float32bits(f) != 0 {
						t.Fatalf("%+v vector=%t: %s[%d] = %v (bits %#x), want +0", g, vector, what, i, f, math.Float32bits(f))
					}
				}
			}
		}
	}
}
