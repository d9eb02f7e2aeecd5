package nn

import (
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// DefaultLeakyAlpha is the negative-input slope of the leaky ReLU used by
// every convolution and FC layer in the CosmoFlow topology (§III-A).
const DefaultLeakyAlpha = 0.01

// elemGrain is the smallest element range an element-wise stage hands a
// worker: 64 KB of float32, so the FC layers' activations stay inline.
const elemGrain = 1 << 14

// LeakyReLU applies f(x) = x for x > 0 and αx otherwise, element-wise.
// These element-wise stages are exactly the low-arithmetic-intensity
// operators the paper threads with OpenMP loop parallelism (§V-B); here
// forward and backward split into contiguous element ranges on the layer's
// pool.
type LeakyReLU struct {
	Alpha float32
	name  string
	pool  *parallel.Pool

	x *tensor.Tensor
}

// NewLeakyReLU builds an activation layer; alpha <= 0 selects the default.
// pool supplies intra-node threading; nil uses parallel.Default.
func NewLeakyReLU(name string, alpha float32, pool *parallel.Pool) *LeakyReLU {
	if alpha <= 0 {
		alpha = DefaultLeakyAlpha
	}
	if pool == nil {
		pool = parallel.Default
	}
	return &LeakyReLU{Alpha: alpha, name: name, pool: pool}
}

func (l *LeakyReLU) Name() string     { return l.name }
func (l *LeakyReLU) Params() []*Param { return nil }

// OutputShape implements Layer.
func (l *LeakyReLU) OutputShape(in tensor.Shape) tensor.Shape { return in.Clone() }

// FwdFLOPs counts one comparison-select per element.
func (l *LeakyReLU) FwdFLOPs(in tensor.Shape) int64 { return int64(in.NumElements()) }

// BwdFLOPs counts one multiply per element.
func (l *LeakyReLU) BwdFLOPs(in tensor.Shape) int64 { return int64(in.NumElements()) }

// Forward implements Layer.
func (l *LeakyReLU) Forward(x *tensor.Tensor) *tensor.Tensor {
	l.x = x
	return forwardOne(l, x)
}

// applyInto writes f(xd) element-wise into yd (same length). The operation
// is per-element, so any split of the elements gives the same results.
func (l *LeakyReLU) applyInto(xd, yd []float32) {
	a := l.Alpha
	for i, v := range xd {
		if v > 0 {
			yd[i] = v
		} else {
			yd[i] = a * v
		}
	}
}

// gradInto writes the input gradient for inputs xd and output gradient
// dyd element-wise into dxd (all the same length).
func (l *LeakyReLU) gradInto(xd, dyd, dxd []float32) {
	a := l.Alpha
	dyd, dxd = dyd[:len(xd)], dxd[:len(xd)]
	for i, v := range xd {
		if v > 0 {
			dxd[i] = dyd[i]
		} else {
			dxd[i] = a * dyd[i]
		}
	}
}

// Backward implements Layer, split by contiguous element ranges.
func (l *LeakyReLU) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if l.x == nil {
		panic("nn: LeakyReLU.Backward called before Forward")
	}
	dx := tensor.New(dy.Shape()...)
	xd, dyd, dxd := l.x.Data(), dy.Data(), dx.Data()
	l.pool.For(len(xd), elemGrain, func(lo, hi int) {
		l.gradInto(xd[lo:hi], dyd[lo:hi], dxd[lo:hi])
	})
	return dx
}
