package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Conv3D is a direct 3D convolution layer with bias, the computational core
// of the CosmoFlow network (§III-C). Two forward kernels are provided: a
// generic direct convolution, and a channel-blocked kernel structured
// exactly like the paper's Algorithm 1 (16-channel blocks over input and
// output, width-blocked inner loops) that is used automatically when the
// layer shape allows it.
type Conv3D struct {
	InC, OutC  int
	K          int // cubic kernel extent
	Stride     int
	Pad        int
	W          *Param // [OC IC K K K]
	B          *Param // [OC]
	pool       *parallel.Pool
	forceNaive bool // disable the blocked forward kernel (see ForceDirect)

	// cached between Forward and Backward
	x *tensor.Tensor

	// packed blocked weights, rebuilt lazily when the weight version bumps
	packed     *tensor.BlockedWeights
	packedSeen uint64
	wVersion   uint64
}

// NewConv3D builds a convolution layer. Weights use He initialization from
// rng; biases start at zero. pool supplies intra-node threading (the
// OpenMP analogue); nil uses parallel.Default.
func NewConv3D(name string, inC, outC, k, stride, pad int, pool *parallel.Pool, rng *rand.Rand) *Conv3D {
	if pool == nil {
		pool = parallel.Default
	}
	c := &Conv3D{
		InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad,
		W:    newParam(name+".W", outC, inC, k, k, k),
		B:    newParam(name+".B", outC),
		pool: pool,
	}
	heInit(c.W.Value, inC*k*k*k, rng)
	c.wVersion = 1
	return c
}

func (c *Conv3D) Name() string { return c.W.Name[:len(c.W.Name)-2] }

// Params returns the weight and bias parameters.
func (c *Conv3D) Params() []*Param { return []*Param{c.W, c.B} }

// ForceDirect disables the blocked Algorithm-1 forward kernel so the generic
// direct convolution runs instead; used by the kernel ablation benchmarks.
// Backward has a single path and ignores it.
func (c *Conv3D) ForceDirect(v bool) { c.forceNaive = v }

// InvalidateWeights must be called after W.Value is mutated (the trainer
// does so after every optimizer step) so the forward kernel's packed
// blocked weights are refreshed. Backward reads W.Value directly.
func (c *Conv3D) InvalidateWeights() { c.wVersion++ }

// OutputShape implements Layer.
func (c *Conv3D) OutputShape(in tensor.Shape) tensor.Shape {
	c.checkInput(in)
	od := convOutDim(in[1], c.K, c.Stride, c.Pad)
	oh := convOutDim(in[2], c.K, c.Stride, c.Pad)
	ow := convOutDim(in[3], c.K, c.Stride, c.Pad)
	return tensor.Shape{c.OutC, od, oh, ow}
}

func (c *Conv3D) checkInput(in tensor.Shape) {
	if len(in) != 4 || in[0] != c.InC {
		panic(fmt.Sprintf("nn: %s expects [C=%d D H W] input, got %v", c.Name(), c.InC, in))
	}
}

// FwdFLOPs counts 2·K³·IC·OC·outVoxels multiply-adds plus bias adds.
func (c *Conv3D) FwdFLOPs(in tensor.Shape) int64 {
	out := c.OutputShape(in)
	vox := int64(out[1]) * int64(out[2]) * int64(out[3])
	mac := 2 * int64(c.K*c.K*c.K) * int64(c.InC) * int64(c.OutC) * vox
	return mac + int64(c.OutC)*vox
}

// BwdFLOPs counts the backward-data plus backward-weights passes, each the
// same MAC volume as forward (§III-C).
func (c *Conv3D) BwdFLOPs(in tensor.Shape) int64 {
	out := c.OutputShape(in)
	vox := int64(out[1]) * int64(out[2]) * int64(out[3])
	mac := 2 * int64(c.K*c.K*c.K) * int64(c.InC) * int64(c.OutC) * vox
	return 2*mac + int64(c.OutC)*vox
}

// useBlocked reports whether the Algorithm-1 kernel applies: stride one and
// both channel counts multiples of the SIMD block, which the paper
// guarantees by construction for every layer after the first (§III-A).
func (c *Conv3D) useBlocked() bool {
	return !c.forceNaive && c.Stride == 1 &&
		c.InC%tensor.BlockSize == 0 && c.OutC%tensor.BlockSize == 0
}

// Forward implements Layer: the batch kernel at B=1, caching x for
// Backward.
func (c *Conv3D) Forward(x *tensor.Tensor) *tensor.Tensor {
	y := forwardOne(c, x)
	c.x = x
	return y
}

// directChannel computes one output channel of the generic direct
// convolution, writing every element of that channel's output slab. It is
// the direct kernel's unit of thread decomposition: each output voxel's
// accumulation runs in the same float64 order however (sample, channel)
// tasks are scheduled, so results do not depend on batch size or workers.
func (c *Conv3D) directChannel(xd, yd []float32, in, out tensor.Shape, oc int) {
	id, ih, iw := in[1], in[2], in[3]
	od, oh, ow := out[1], out[2], out[3]
	wd, bd := c.W.Value.Data(), c.B.Value.Data()
	k, s, p := c.K, c.Stride, c.Pad
	for z := 0; z < od; z++ {
		kdLo, kdHi := kernelRange(z, s, p, k, id)
		for yy := 0; yy < oh; yy++ {
			khLo, khHi := kernelRange(yy, s, p, k, ih)
			for xx := 0; xx < ow; xx++ {
				kwLo, kwHi := kernelRange(xx, s, p, k, iw)
				acc := float64(bd[oc])
				for ic := 0; ic < c.InC; ic++ {
					wBase := (((oc*c.InC + ic) * k) * k) * k
					for kd := kdLo; kd < kdHi; kd++ {
						zi := z*s + kd - p
						for kh := khLo; kh < khHi; kh++ {
							yi := yy*s + kh - p
							xRow := ((ic*id+zi)*ih + yi) * iw
							wRow := wBase + (kd*k+kh)*k
							for kw := kwLo; kw < kwHi; kw++ {
								xi := xx*s + kw - p
								acc += float64(wd[wRow+kw]) * float64(xd[xRow+xi])
							}
						}
					}
				}
				yd[((oc*od+z)*oh+yy)*ow+xx] = float32(acc)
			}
		}
	}
}

// kernelRange returns the kernel index interval [lo, hi) that keeps the
// input coordinate o*s + kk - p inside [0, extent).
func kernelRange(o, s, p, k, extent int) (lo, hi int) {
	lo = p - o*s
	if lo < 0 {
		lo = 0
	}
	hi = extent - o*s + p
	if hi > k {
		hi = k
	}
	return lo, hi
}
