package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cpufeat"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// TestConvForwardMatchesBruteForce is the forward kernel's differential
// test. Every geometry runs at B {1,2,3,5} on the layer and on clones with
// 1, 2 and 5 workers; every output must lie within 1e-4 of the float64
// loop nest and be bit-equal to the single-worker Forward of its sample,
// and to that Forward on the pure-Go row kernel. The 51 geometries cover
// every OutC%4 tail, widths on both sides of 28 (and 61) and exact 4- and
// 8-wide vector blocks, K {1,3,4} × stride {1,2} × pad {0,1,2}, the
// paper's 16→32 and 32→16 channel steps, and 1³ volumes.
func TestConvForwardMatchesBruteForce(t *testing.T) {
	type geom struct{ inC, outC, d, h, w, k, stride, pad int }
	var cases []geom
	for _, oc := range []int{1, 2, 3, 4, 5, 16} {
		cases = append(cases, geom{3, oc, 3, 4, 7, 3, 1, 1})
	}
	for _, w := range []int{1, 4, 7, 8, 16, 27, 28, 29, 30, 61} {
		cases = append(cases, geom{16, 16, 2, 2, w, 3, 1, 1}, geom{2, 5, 2, 3, w, 3, 2, 1})
	}
	for _, k := range []int{1, 3, 4} {
		for _, s := range []int{1, 2} {
			for _, p := range []int{0, 1, 2} {
				cases = append(cases, geom{2, 3, 4, 5, 6, k, s, p})
			}
		}
	}
	cases = append(cases,
		geom{16, 32, 6, 5, 7, 3, 1, 1},
		geom{32, 16, 6, 5, 7, 3, 1, 1},
		geom{16, 16, 1, 1, 1, 3, 1, 1},
		geom{4, 5, 1, 1, 1, 3, 2, 1},
		geom{3, 4, 1, 1, 1, 1, 1, 0},
		geom{2, 3, 1, 1, 1, 3, 1, 2},
		geom{1, 16, 1, 1, 1, 4, 2, 2},
	)

	setVectorConv(t, cpufeat.AVX2) // restored however the test ends
	var pools []*parallel.Pool
	for _, w := range []int{1, 2, 5} {
		pools = append(pools, parallel.NewPool(w))
	}
	defer func() {
		for _, p := range pools {
			p.Close()
		}
	}()
	for i, g := range cases {
		name := fmt.Sprintf("%d->%d_%dx%dx%d_k%ds%dp%d", g.inC, g.outC, g.d, g.h, g.w, g.k, g.stride, g.pad)
		rng := rand.New(rand.NewSource(int64(i)))
		c := NewConv3D("c", g.inC, g.outC, g.k, g.stride, g.pad, pools[0], rng)
		c.B.Value.RandNormal(rng, 0, 0.5)
		xs := randBatch(tensor.Shape{g.inC, g.d, g.h, g.w}, 5, int64(i))
		want := make([][]float32, len(xs))
		for j, x := range xs {
			want[j] = append([]float32(nil), c.Forward(x).Data()...)
			if e := maxRelErr(want[j], refConvForward(c, x)); e > 1e-4 {
				t.Fatalf("%s: sample %d relative error %g against the float64 reference", name, j, e)
			}
			vectorConv = false
			requireBits(t, fmt.Sprintf("%s sample %d on the Go row kernel", name, j), c.Forward(x).Data(), want[j])
			vectorConv = cpufeat.AVX2
		}
		layers := []*Conv3D{c}
		for _, p := range pools {
			layers = append(layers, c.cloneFor(p).(*Conv3D))
		}
		for li, l := range layers {
			ctx := &batchCtx{buf: tensor.NewBufPool()}
			for _, B := range []int{1, 2, 3, 5} {
				for j, y := range l.inferBatch(xs[:B], ctx) {
					requireBits(t, fmt.Sprintf("%s layer %d (workers=%d) B=%d sample %d", name, li, l.pool.Workers(), B, j), y.Data(), want[j])
				}
			}
		}
	}
}

// TestConvForwardSeesWeightUpdate writes W.Value between two Forward calls,
// as an optimizer step does, with nothing else called: the second Forward
// must compute with the new weights.
func TestConvForwardSeesWeightUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	pool := parallel.NewPool(1)
	defer pool.Close()
	c := NewConv3D("c", 16, 16, 3, 1, 1, pool, rng)
	x := tensor.New(16, 4, 4, 4)
	x.RandNormal(rng, 0, 1)
	c.Forward(x)
	for i := range c.W.Value.Data() {
		c.W.Value.Data()[i] *= -0.5
	}
	if e := maxRelErr(c.Forward(x).Data(), refConvForward(c, x)); e > 1e-4 {
		t.Errorf("forward after a weight write off by %g (stale weights?)", e)
	}
}
