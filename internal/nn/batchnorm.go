package nn

import (
	"math"

	"repro/internal/tensor"
)

// BatchNorm3D normalizes each channel over its spatial extent with
// learnable scale and shift. With the paper's mini-batch size of one this
// is instance normalization — which is precisely why the paper removed it:
// the per-step normalization adds elementwise passes and cross-feature
// reductions with no accuracy benefit at batch 1 (§III-A: "We remove
// batch-norm layers from the topology for efficient scaling and compute
// performance... and do not see accuracy degradation with batch-norm
// removal"). The layer exists here to reproduce that ablation.
type BatchNorm3D struct {
	C     int
	Eps   float32
	Gamma *Param // [C]
	Beta  *Param // [C]

	// Momentum for the running statistics used in inference mode.
	Momentum float32
	// Train selects normalization by current statistics (true) or by the
	// running averages (false).
	Train bool

	runMean, runVar []float32

	// cached for backward
	x          *tensor.Tensor
	xhat       []float32
	mu, invStd []float32
}

// NewBatchNorm3D builds the layer for c channels; γ starts at 1, β at 0.
func NewBatchNorm3D(name string, c int) *BatchNorm3D {
	bn := &BatchNorm3D{
		C: c, Eps: 1e-5, Momentum: 0.9, Train: true,
		Gamma:   newParam(name+".G", c),
		Beta:    newParam(name+".B", c),
		runMean: make([]float32, c),
		runVar:  make([]float32, c),
	}
	bn.Gamma.Value.Fill(1)
	for i := range bn.runVar {
		bn.runVar[i] = 1
	}
	return bn
}

func (bn *BatchNorm3D) Name() string     { return bn.Gamma.Name[:len(bn.Gamma.Name)-2] }
func (bn *BatchNorm3D) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }

// OutputShape implements Layer.
func (bn *BatchNorm3D) OutputShape(in tensor.Shape) tensor.Shape { return in.Clone() }

// FwdFLOPs counts roughly four passes over the data.
func (bn *BatchNorm3D) FwdFLOPs(in tensor.Shape) int64 { return 4 * int64(in.NumElements()) }

// BwdFLOPs counts roughly six passes.
func (bn *BatchNorm3D) BwdFLOPs(in tensor.Shape) int64 { return 6 * int64(in.NumElements()) }

// Forward implements Layer.
func (bn *BatchNorm3D) Forward(x *tensor.Tensor) *tensor.Tensor {
	s := x.Shape()
	if len(s) != 4 || s[0] != bn.C {
		panic("nn: BatchNorm3D input shape mismatch")
	}
	n := s[1] * s[2] * s[3]
	bn.x = x
	y := tensor.New(s...)
	xd, yd := x.Data(), y.Data()
	gd, bd := bn.Gamma.Value.Data(), bn.Beta.Value.Data()

	if cap(bn.xhat) < len(xd) {
		bn.xhat = make([]float32, len(xd))
		bn.mu = make([]float32, bn.C)
		bn.invStd = make([]float32, bn.C)
	}
	bn.xhat = bn.xhat[:len(xd)]

	for c := 0; c < bn.C; c++ {
		seg := xd[c*n : (c+1)*n]
		var mean, variance float32
		if bn.Train {
			var sum float64
			for _, v := range seg {
				sum += float64(v)
			}
			mean = float32(sum / float64(n))
			var sq float64
			for _, v := range seg {
				d := float64(v - mean)
				sq += d * d
			}
			variance = float32(sq / float64(n))
			bn.runMean[c] = bn.Momentum*bn.runMean[c] + (1-bn.Momentum)*mean
			bn.runVar[c] = bn.Momentum*bn.runVar[c] + (1-bn.Momentum)*variance
		} else {
			mean, variance = bn.runMean[c], bn.runVar[c]
		}
		inv := float32(1 / math.Sqrt(float64(variance)+float64(bn.Eps)))
		bn.mu[c], bn.invStd[c] = mean, inv
		g, b := gd[c], bd[c]
		for i, v := range seg {
			h := (v - mean) * inv
			bn.xhat[c*n+i] = h
			yd[c*n+i] = g*h + b
		}
	}
	return y
}

// inferChannel normalizes one channel by the running statistics, the unit of
// thread decomposition of inference mode. Same grouping as Forward's
// inference branch, so the results are bit-identical: h first, then g*h + b.
func (bn *BatchNorm3D) inferChannel(xd, yd []float32, n, c int) {
	gd, bd := bn.Gamma.Value.Data(), bn.Beta.Value.Data()
	mean := bn.runMean[c]
	inv := float32(1 / math.Sqrt(float64(bn.runVar[c])+float64(bn.Eps)))
	g, b := gd[c], bd[c]
	for i := c * n; i < (c+1)*n; i++ {
		h := (xd[i] - mean) * inv
		yd[i] = g*h + b
	}
}

// Backward implements Layer (training-mode gradient; inference mode treats
// the running statistics as constants).
func (bn *BatchNorm3D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if bn.x == nil {
		panic("nn: BatchNorm3D.Backward called before Forward")
	}
	s := bn.x.Shape()
	n := s[1] * s[2] * s[3]
	dx := tensor.New(s...)
	dyd, dxd := dy.Data(), dx.Data()
	gd := bn.Gamma.Value.Data()
	dgd, dbd := bn.Gamma.Grad.Data(), bn.Beta.Grad.Data()

	for c := 0; c < bn.C; c++ {
		dySeg := dyd[c*n : (c+1)*n]
		hatSeg := bn.xhat[c*n : (c+1)*n]
		var sumDy, sumDyHat float64
		for i, g := range dySeg {
			sumDy += float64(g)
			sumDyHat += float64(g) * float64(hatSeg[i])
		}
		dgd[c] += float32(sumDyHat)
		dbd[c] += float32(sumDy)

		if !bn.Train {
			// Running stats are constants: dx = dy·γ·invStd.
			k := gd[c] * bn.invStd[c]
			for i, g := range dySeg {
				dxd[c*n+i] = k * g
			}
			continue
		}
		// Standard batch-norm backward over the normalization axis.
		invN := 1 / float64(n)
		k := float64(gd[c]) * float64(bn.invStd[c])
		for i, g := range dySeg {
			dxd[c*n+i] = float32(k * (float64(g) - sumDy*invN - float64(hatSeg[i])*sumDyHat*invN))
		}
	}
	return dx
}

// Dropout zeroes a fraction of activations during training and scales the
// survivors (inverted dropout); it is the identity in inference mode.
// Ravanbakhsh et al.'s original 64³ network used dropout; CosmoFlow's
// production topology omits it, so this layer exists for fidelity
// experiments against the predecessor network.
type Dropout struct {
	Rate  float32
	Train bool
	name  string
	seed  int64
	step  int64

	mask []float32
}

// NewDropout builds a dropout layer with drop probability rate.
func NewDropout(name string, rate float32, seed int64) *Dropout {
	if rate < 0 || rate >= 1 {
		panic("nn: dropout rate must be in [0, 1)")
	}
	return &Dropout{Rate: rate, Train: true, name: name, seed: seed}
}

func (d *Dropout) Name() string                             { return d.name }
func (d *Dropout) Params() []*Param                         { return nil }
func (d *Dropout) OutputShape(in tensor.Shape) tensor.Shape { return in.Clone() }
func (d *Dropout) FwdFLOPs(in tensor.Shape) int64           { return int64(in.NumElements()) }
func (d *Dropout) BwdFLOPs(in tensor.Shape) int64           { return int64(in.NumElements()) }

// Forward implements Layer.
func (d *Dropout) Forward(x *tensor.Tensor) *tensor.Tensor {
	if !d.Train || d.Rate == 0 {
		d.mask = nil
		return x
	}
	y := tensor.New(x.Shape()...)
	xd, yd := x.Data(), y.Data()
	if cap(d.mask) < len(xd) {
		d.mask = make([]float32, len(xd))
	}
	d.mask = d.mask[:len(xd)]
	// Deterministic per-step mask from a splitmix-style hash, so replays
	// are reproducible without sharing rand state across goroutines.
	d.step++
	state := uint64(d.seed)*0x9E3779B97F4A7C15 + uint64(d.step)
	scale := 1 / (1 - d.Rate)
	for i := range xd {
		state += 0x9E3779B97F4A7C15
		z := state
		z ^= z >> 30
		z *= 0xBF58476D1CE4E5B9
		z ^= z >> 27
		z *= 0x94D049BB133111EB
		z ^= z >> 31
		u := float32(z>>11) / float32(1<<53)
		if u < d.Rate {
			d.mask[i] = 0
			yd[i] = 0
		} else {
			d.mask[i] = scale
			yd[i] = xd[i] * scale
		}
	}
	return y
}

// Backward implements Layer.
func (d *Dropout) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if d.mask == nil {
		return dy
	}
	dx := tensor.New(dy.Shape()...)
	dyd, dxd := dy.Data(), dx.Data()
	for i, m := range d.mask {
		dxd[i] = dyd[i] * m
	}
	return dx
}

// SetTraining switches every mode-dependent layer (BatchNorm3D, Dropout)
// between training and inference behaviour.
func (n *Network) SetTraining(train bool) {
	for _, l := range n.Layers {
		switch v := l.(type) {
		case *BatchNorm3D:
			v.Train = train
		case *Dropout:
			v.Train = train
		}
	}
}
