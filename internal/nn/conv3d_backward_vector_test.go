package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

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
// every vector path: width in lanes at stride 1 (rows of 4 and more, with
// the n%4 tail on the Go body) at padding 0, 1 and 2, and input channels
// in lanes (narrower rows and stride 2, with a channel tail past the last
// octet); each has an OutC%4 tail, whose zero weights still multiply real
// dy, and dW's output-channel lanes run past OutC.
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
