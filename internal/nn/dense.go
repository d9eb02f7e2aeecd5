package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Flatten reshapes a rank-4 activation into a vector so a Dense layer can
// consume it. It performs no computation (the data is already contiguous).
type Flatten struct {
	name    string
	inShape tensor.Shape
}

// NewFlatten builds a flatten layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

func (f *Flatten) Name() string     { return f.name }
func (f *Flatten) Params() []*Param { return nil }

// OutputShape implements Layer.
func (f *Flatten) OutputShape(in tensor.Shape) tensor.Shape {
	return tensor.Shape{in.NumElements()}
}

func (f *Flatten) FwdFLOPs(tensor.Shape) int64 { return 0 }
func (f *Flatten) BwdFLOPs(tensor.Shape) int64 { return 0 }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor) *tensor.Tensor {
	f.inShape = x.Shape().Clone()
	return forwardOne(f, x)
}

// Backward implements Layer.
func (f *Flatten) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if f.inShape == nil {
		panic("nn: Flatten.Backward called before Forward")
	}
	return dy.Reshape(f.inShape...)
}

// Dense is a fully-connected layer y = Wx + b.
type Dense struct {
	In, Out int
	W       *Param // [Out In]
	B       *Param // [Out]
	pool    *parallel.Pool

	x *tensor.Tensor
}

// NewDense builds a fully-connected layer with He-initialized weights.
func NewDense(name string, in, out int, pool *parallel.Pool, rng *rand.Rand) *Dense {
	return newDense(newParam, name, in, out, pool, rng)
}

// newDense is NewDense with the parameter allocator as an argument.
func newDense(param func(string, ...int) *Param, name string, in, out int, pool *parallel.Pool, rng *rand.Rand) *Dense {
	if pool == nil {
		pool = parallel.Default
	}
	d := &Dense{
		In: in, Out: out,
		W:    param(name+".W", out, in),
		B:    param(name+".B", out),
		pool: pool,
	}
	heInit(d.W.Value, in, rng)
	return d
}

func (d *Dense) Name() string     { return d.W.Name[:len(d.W.Name)-2] }
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// OutputShape implements Layer.
func (d *Dense) OutputShape(in tensor.Shape) tensor.Shape {
	if in.NumElements() != d.In {
		panic(fmt.Sprintf("nn: %s expects %d inputs, got shape %v", d.Name(), d.In, in))
	}
	return tensor.Shape{d.Out}
}

// FwdFLOPs counts the 2·In·Out multiply-adds plus bias adds.
func (d *Dense) FwdFLOPs(tensor.Shape) int64 {
	return 2*int64(d.In)*int64(d.Out) + int64(d.Out)
}

// BwdFLOPs counts backward-data plus backward-weights.
func (d *Dense) BwdFLOPs(tensor.Shape) int64 {
	return 4*int64(d.In)*int64(d.Out) + int64(d.Out)
}

// Forward implements Layer: the batch kernel at B=1, caching x for
// Backward.
func (d *Dense) Forward(x *tensor.Tensor) *tensor.Tensor {
	y := forwardOne(d, x)
	d.x = x
	return y
}

// applyRange computes output rows [lo, hi) of y = Wx + b. Each row's
// accumulation is a single sequential float64 loop, so any decomposition of
// rows — including across batch samples — is bit-identical.
func (d *Dense) applyRange(xd, yd []float32, lo, hi int) {
	wd, bd := d.W.Value.Data(), d.B.Value.Data()
	for o := lo; o < hi; o++ {
		acc := float64(bd[o])
		row := o * d.In
		for i := 0; i < d.In; i++ {
			acc += float64(wd[row+i]) * float64(xd[i])
		}
		yd[o] = float32(acc)
	}
}

// Backward implements Layer.
func (d *Dense) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if d.x == nil {
		panic("nn: Dense.Backward called before Forward")
	}
	xd, dyd := d.x.Data(), dy.Data()
	wd := d.W.Value.Data()
	dwd, dbd := d.W.Grad.Data(), d.B.Grad.Data()

	// dW[o][i] += dy[o]·x[i]; db[o] += dy[o]. Threaded over rows, each
	// worker owning disjoint output rows.
	d.pool.For(d.Out, 16, func(lo, hi int) {
		for o := lo; o < hi; o++ {
			g := dyd[o]
			dbd[o] += g
			row := o * d.In
			if g == 0 {
				continue
			}
			for i := 0; i < d.In; i++ {
				dwd[row+i] += g * xd[i]
			}
		}
	})

	// dx = Wᵀ dy, threaded over input positions.
	dx := tensor.New(d.In)
	dxd := dx.Data()
	d.pool.For(d.In, 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			var acc float64
			for o := 0; o < d.Out; o++ {
				acc += float64(wd[o*d.In+i]) * float64(dyd[o])
			}
			dxd[i] = float32(acc)
		}
	})
	return dx
}
