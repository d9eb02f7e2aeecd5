package nn

import (
	"repro/internal/tensor"
)

// DefaultLeakyAlpha is the negative-input slope of the leaky ReLU used by
// every convolution and FC layer in the CosmoFlow topology (§III-A).
const DefaultLeakyAlpha = 0.01

// LeakyReLU applies f(x) = x for x > 0 and αx otherwise, element-wise.
// These element-wise stages are exactly the low-arithmetic-intensity
// operators the paper threads with OpenMP loop parallelism (§V-B); here they
// run single-threaded because memory bandwidth, not compute, bounds them.
type LeakyReLU struct {
	Alpha float32
	name  string

	x *tensor.Tensor
}

// NewLeakyReLU builds an activation layer; alpha <= 0 selects the default.
func NewLeakyReLU(name string, alpha float32) *LeakyReLU {
	if alpha <= 0 {
		alpha = DefaultLeakyAlpha
	}
	return &LeakyReLU{Alpha: alpha, name: name}
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
// is per-element, so samples can fan out to workers without changing
// results.
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

// Backward implements Layer.
func (l *LeakyReLU) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if l.x == nil {
		panic("nn: LeakyReLU.Backward called before Forward")
	}
	dx := tensor.New(dy.Shape()...)
	xd, dyd, dxd := l.x.Data(), dy.Data(), dx.Data()
	a := l.Alpha
	for i, v := range xd {
		if v > 0 {
			dxd[i] = dyd[i]
		} else {
			dxd[i] = a * dyd[i]
		}
	}
	return dx
}
