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

// setVectorConv sets the forward kernel switch for the rest of t.
func setVectorConv(t testing.TB, on bool) {
	was := vectorConv
	vectorConv = on
	t.Cleanup(func() { vectorConv = was })
}

// requireAVX2 skips t on a CPU without AVX2, where there is no vector
// body to compare.
func requireAVX2(t testing.TB) {
	if !cpufeat.AVX2 {
		t.Skip("no AVX2 vector body on this CPU or build")
	}
}

// rowK3Case is one fwdRowK3 call's operands: four rows of width n, inC
// input rows xChan apart and four channels' weights, filled from draw.
type rowK3Case struct {
	rows       [4][]float32
	x          []float32
	xChan      int
	w          [4][]float32
	wr, inC, n int
}

func newRowK3Case(n, inC, wr int, draw func() float32) *rowK3Case {
	c := &rowK3Case{xChan: n + 5, wr: wr, inC: inC, n: n}
	c.x = make([]float32, (inC-1)*c.xChan+n+2)
	for i := range c.x {
		c.x[i] = draw()
	}
	for j := range c.rows {
		c.rows[j] = make([]float32, n)
		for i := range c.rows[j] {
			c.rows[j][i] = draw()
		}
		c.w[j] = make([]float32, inC*27)
		for i := range c.w[j] {
			c.w[j][i] = draw()
		}
	}
	return c
}

// run applies kernel to a copy of c's rows and returns them.
func (c *rowK3Case) run(kernel func(*[4][]float32, []float32, int, *[4][]float32, int, int)) [4][]float32 {
	var rows [4][]float32
	for j := range rows {
		rows[j] = append([]float32(nil), c.rows[j]...)
		rows[j] = rows[j][:len(rows[j]):len(rows[j])]
	}
	kernel(&rows, c.x, c.xChan, &c.w, c.wr, c.inC)
	return rows
}

// TestFwdRowK3VectorMatchesGo runs the vector kernel against fwdRowK3Go
// for widths 1–40 (the 8- and 4-wide blocks, the n%4 tail and rows too
// narrow for a block) and InC {1, 2, 3, 16}, on random values and on
// values mixed with ±0, subnormals, ±Inf and ±MaxFloat32 (whose products
// overflow), and requires every output bit to match.
func TestFwdRowK3VectorMatchesGo(t *testing.T) {
	requireAVX2(t)
	setVectorConv(t, true)
	specials := []float32{
		0, float32(math.Copysign(0, -1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, -3e-39,
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.MaxFloat32, -math.MaxFloat32,
	}
	rng := rand.New(rand.NewSource(60))
	draws := map[string]func() float32{
		"random": func() float32 { return float32(rng.NormFloat64()) },
		"special": func() float32 {
			if rng.Intn(3) == 0 {
				return float32(rng.NormFloat64())
			}
			return specials[rng.Intn(len(specials))]
		},
	}
	for name, draw := range draws {
		for n := 1; n <= 40; n++ {
			for _, inC := range []int{1, 2, 3, 16} {
				c := newRowK3Case(n, inC, rng.Intn(9)*3, draw)
				got, want := c.run(fwdRowK3), c.run(fwdRowK3Go)
				for j := range got {
					requireBits(t, fmt.Sprintf("%s n=%d inC=%d channel %d", name, n, inC, j), got[j], want[j])
				}
			}
		}
	}
}

// TestFwdRowK3VectorChecksBounds gives the vector path operands one
// element short of the geometry, or a negative channel stride: each call
// must panic in the Go wrapper instead of reading out of range. The short
// operands are cut in capacity too, since re-slicing may reach into it,
// in the vector wrapper as in fwdRowK3Go.
func TestFwdRowK3VectorChecksBounds(t *testing.T) {
	requireAVX2(t)
	setVectorConv(t, true)
	one := func() float32 { return 1 }
	for _, tc := range []struct {
		name   string
		mutate func(c *rowK3Case)
	}{
		{"short x", func(c *rowK3Case) { c.x = c.x[: len(c.x)-1 : len(c.x)-1] }},
		{"short w", func(c *rowK3Case) { c.w[2] = c.w[2][: len(c.w[2])-1 : len(c.w[2])-1] }},
		{"short row", func(c *rowK3Case) { c.rows[3] = c.rows[3][: c.n-1 : c.n-1] }},
		{"negative xChan", func(c *rowK3Case) { c.xChan = -c.xChan }},
	} {
		c := newRowK3Case(12, 3, 24, one)
		tc.mutate(c)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			c.run(fwdRowK3)
		}()
	}
}

// TestFwdRowK3VectorDoesNotAllocate checks a vector-path call, tail
// included, allocates nothing. Its operands are local arrays, which stay
// on the stack only if the assembly's pointer arguments do not escape
// (//go:noescape).
func TestFwdRowK3VectorDoesNotAllocate(t *testing.T) {
	requireAVX2(t)
	setVectorConv(t, true)
	const n, inC, xChan = 15, 2, 20
	if a := testing.AllocsPerRun(100, func() {
		var x [(inC-1)*xChan + n + 2]float32
		var y [4][n]float32
		var w [4][inC * 27]float32
		for i := range x {
			x[i] = float32(i)
		}
		rows := [4][]float32{y[0][:], y[1][:], y[2][:], y[3][:]}
		ws := [4][]float32{w[0][:], w[1][:], w[2][:], w[3][:]}
		fwdRowK3(&rows, x[:], xChan, &ws, 12, inC)
	}); a != 0 {
		t.Errorf("fwdRowK3 allocates %v times per call, want 0", a)
	}
}

// TestNetworkVectorConvMatchesGo builds the benchmark's three networks —
// predict.large (dim 16, base 16), train.1rank (32/8) and predict.small
// (8/4) — and requires Forward, InferBatch at B {1, 2, 3}, one
// Backward's parameter gradients and every conv layer's own dx to be
// bit-equal with the vector kernels and with the pure-Go ones. A world whose ranks differ in AVX2 therefore
// trains on the same bits.
func TestNetworkVectorConvMatchesGo(t *testing.T) {
	requireAVX2(t)
	pool := parallel.NewPool(2)
	defer pool.Close()
	for _, cfg := range []struct{ dim, base int }{{16, 16}, {32, 8}, {8, 4}} {
		net, err := BuildCosmoFlow(TopologyConfig{InputDim: cfg.dim, BaseChannels: cfg.base, Seed: 1, Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		xs := randBatch(net.InputShape(), 3, int64(cfg.dim))
		dy := tensor.New(net.Forward(xs[0]).Shape()...)
		dy.RandNormal(rand.New(rand.NewSource(3)), 0, 1)
		outputs := func(vector bool) [][]float32 {
			setVectorConv(t, vector)
			out := [][]float32{append([]float32(nil), net.Forward(xs[0]).Data()...)}
			for B := 1; B <= 3; B++ {
				for _, y := range net.InferBatch(xs[:B]) {
					out = append(out, append([]float32(nil), y.Data()...))
				}
			}
			net.ZeroGrads()
			net.Forward(xs[1])
			net.Backward(dy)
			for _, p := range net.Params() {
				out = append(out, append([]float32(nil), p.Grad.Data()...))
			}
			// Network.Backward never computes conv1's dx, so each conv
			// layer's own Backward gives its dx here.
			for i, c := range net.ConvLayers() {
				dyc := tensor.New(c.OutputShape(c.x.Shape())...)
				dyc.RandNormal(rand.New(rand.NewSource(int64(10+i))), 0, 1)
				out = append(out, append([]float32(nil), c.Backward(dyc).Data()...))
			}
			return out
		}
		got, want := outputs(true), outputs(false)
		for i := range want {
			requireBits(t, fmt.Sprintf("dim %d base %d output %d", cfg.dim, cfg.base, i), got[i], want[i])
		}
	}
}
