package nn

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// AvgPool3D is average pooling with a cubic window, used by the CosmoFlow
// topology with kernel = stride = 2 to halve each spatial dimension while
// the following convolution doubles the channels (§III-A). As the paper
// notes, pooling is a constant-weight special case of convolution and is
// bandwidth-bound. Forward and backward split by (sample × channel) on the
// layer's pool.
type AvgPool3D struct {
	K      int
	Stride int
	name   string
	pool   *parallel.Pool

	inShape tensor.Shape
}

// NewAvgPool3D builds an average-pooling layer. pool supplies intra-node
// threading; nil uses parallel.Default.
func NewAvgPool3D(name string, k, stride int, pool *parallel.Pool) *AvgPool3D {
	if k < 1 || stride < 1 {
		panic(fmt.Sprintf("nn: invalid pooling k=%d stride=%d", k, stride))
	}
	if pool == nil {
		pool = parallel.Default
	}
	return &AvgPool3D{K: k, Stride: stride, name: name, pool: pool}
}

func (p *AvgPool3D) Name() string     { return p.name }
func (p *AvgPool3D) Params() []*Param { return nil }

// OutputShape implements Layer. Pooling windows are fully contained (no
// padding), as in the paper's stride-2 down-sampling.
func (p *AvgPool3D) OutputShape(in tensor.Shape) tensor.Shape {
	if len(in) != 4 {
		panic(fmt.Sprintf("nn: %s expects rank-4 input, got %v", p.name, in))
	}
	if in[1] < p.K || in[2] < p.K || in[3] < p.K {
		panic(fmt.Sprintf("nn: %s input %v smaller than window %d", p.name, in, p.K))
	}
	od := (in[1]-p.K)/p.Stride + 1
	oh := (in[2]-p.K)/p.Stride + 1
	ow := (in[3]-p.K)/p.Stride + 1
	if od < 1 || oh < 1 || ow < 1 {
		panic(fmt.Sprintf("nn: %s output would be empty for input %v", p.name, in))
	}
	return tensor.Shape{in[0], od, oh, ow}
}

// FwdFLOPs counts one add per window element plus the final scale.
func (p *AvgPool3D) FwdFLOPs(in tensor.Shape) int64 {
	out := p.OutputShape(in)
	vox := int64(out[0]) * int64(out[1]) * int64(out[2]) * int64(out[3])
	return vox * int64(p.K*p.K*p.K+1)
}

// BwdFLOPs counts one scaled scatter-add per window element.
func (p *AvgPool3D) BwdFLOPs(in tensor.Shape) int64 { return p.FwdFLOPs(in) }

// Forward implements Layer.
func (p *AvgPool3D) Forward(x *tensor.Tensor) *tensor.Tensor {
	y := forwardOne(p, x)
	p.inShape = x.Shape().Clone()
	return y
}

// poolChannel pools one channel, writing every element of that channel's
// output. It is the unit of thread decomposition: each (sample, channel)
// task accumulates its windows in a fixed order, so results are
// bit-identical under any scheduling.
func (p *AvgPool3D) poolChannel(xd, yd []float32, in, out tensor.Shape, c int) {
	id, ih, iw := in[1], in[2], in[3]
	od, oh, ow := out[1], out[2], out[3]
	inv := 1 / float32(p.K*p.K*p.K)
	for z := 0; z < od; z++ {
		for yy := 0; yy < oh; yy++ {
			for xx := 0; xx < ow; xx++ {
				var acc float32
				for kd := 0; kd < p.K; kd++ {
					zi := z*p.Stride + kd
					for kh := 0; kh < p.K; kh++ {
						yi := yy*p.Stride + kh
						row := ((c*id+zi)*ih + yi) * iw
						for kw := 0; kw < p.K; kw++ {
							acc += xd[row+xx*p.Stride+kw]
						}
					}
				}
				yd[((c*od+z)*oh+yy)*ow+xx] = acc * inv
			}
		}
	}
}

// Backward implements Layer: the gradient of each output voxel is spread
// uniformly over its window, one channel per task.
func (p *AvgPool3D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if p.inShape == nil {
		panic("nn: AvgPool3D.Backward called before Forward")
	}
	in, out := p.inShape, dy.Shape()
	dx := tensor.New(in...)
	dxd, dyd := dx.Data(), dy.Data()
	p.pool.ForEach(in[0], 1, func(c int) {
		p.unpoolChannel(dyd, dxd, in, out, c)
	})
	return dx
}

// unpoolChannel spreads channel c of the output gradient dyd over its
// windows in dxd, writing only that channel's part of dxd. Overlapping
// windows (K > Stride) accumulate in one fixed order within the channel,
// so results are bit-identical under any scheduling.
func (p *AvgPool3D) unpoolChannel(dyd, dxd []float32, in, out tensor.Shape, c int) {
	id, ih, iw := in[1], in[2], in[3]
	od, oh, ow := out[1], out[2], out[3]
	inv := 1 / float32(p.K*p.K*p.K)
	for z := 0; z < od; z++ {
		for yy := 0; yy < oh; yy++ {
			for xx := 0; xx < ow; xx++ {
				g := dyd[((c*od+z)*oh+yy)*ow+xx] * inv
				for kd := 0; kd < p.K; kd++ {
					zi := z*p.Stride + kd
					for kh := 0; kh < p.K; kh++ {
						yi := yy*p.Stride + kh
						row := ((c*id+zi)*ih + yi) * iw
						for kw := 0; kw < p.K; kw++ {
							dxd[row+xx*p.Stride+kw] += g
						}
					}
				}
			}
		}
	}
}
