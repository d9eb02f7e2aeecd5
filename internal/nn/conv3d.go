package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Conv3D is a direct 3D convolution layer with bias, the computational core
// of the CosmoFlow network (§III-C). Its one forward kernel (convGroup)
// computes four output channels at a time along width-padded input rows,
// reading W.Value directly, so a weight update is visible to the next
// forward with no repacking. There is no 16-channel blocked layout: the
// paper's Algorithm 1 blocks channels by 16 to fill AVX512 registers; here
// the reuse that pays is one x load feeding four output channels × three
// width taps held in registers, eight or four widths at a time where the
// CPU has AVX2 (fwdRowK3). Backward (conv3d_backward.go) has a pure-Go
// body for both operators and, where the CPU has AVX2, a vector body for
// each (dwOct8; dxRowK3, dxChan8) whose gradients are bit-equal to the Go
// one's.
type Conv3D struct {
	InC, OutC int
	K         int // cubic kernel extent
	Stride    int
	Pad       int
	W         *Param // [OC IC K K K]
	B         *Param // [OC]
	pool      *parallel.Pool

	// cached between Forward and Backward
	x *tensor.Tensor
	// Backward's working copies
	bwd bwdScratch
}

// NewConv3D builds a convolution layer. Weights use He initialization from
// rng; biases start at zero. pool supplies intra-node threading (the
// OpenMP analogue); nil uses parallel.Default.
func NewConv3D(name string, inC, outC, k, stride, pad int, pool *parallel.Pool, rng *rand.Rand) *Conv3D {
	return newConv3D(newParam, name, inC, outC, k, stride, pad, pool, rng)
}

// newConv3D is NewConv3D with the parameter allocator as an argument.
func newConv3D(param func(string, ...int) *Param, name string, inC, outC, k, stride, pad int, pool *parallel.Pool, rng *rand.Rand) *Conv3D {
	if pool == nil {
		pool = parallel.Default
	}
	c := &Conv3D{
		InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad,
		W:    param(name+".W", outC, inC, k, k, k),
		B:    param(name+".B", outC),
		pool: pool,
	}
	heInit(c.W.Value, inC*k*k*k, rng)
	return c
}

func (c *Conv3D) Name() string { return c.W.Name[:len(c.W.Name)-2] }

// Params returns the weight and bias parameters.
func (c *Conv3D) Params() []*Param { return []*Param{c.W, c.B} }

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

// Forward implements Layer: the batch kernel at B=1, caching x for
// Backward.
func (c *Conv3D) Forward(x *tensor.Tensor) *tensor.Tensor {
	y := forwardOne(c, x)
	c.x = x
	return y
}

// padRows writes into dst a copy of src, rows of width w, with pad zeros on
// either side of every row, and returns dst. dst must hold
// len(src)/w·(w+2·pad) values; its previous contents do not matter.
func padRows(dst, src []float32, w, pad int) []float32 {
	pitch := w + 2*pad
	for r := 0; r*w < len(src); r++ {
		row := dst[r*pitch:][:pitch]
		clear(row[:pad])
		copy(row[pad:], src[r*w:][:w])
		clear(row[pad+w:])
	}
	return dst
}

// convGroup is the forward kernel's task: output channels oc0 … oc0+3 at
// output depth z, written into y from the width-padded input xp (row pitch
// iw+2·Pad). Every element of those four channel slabs is written, each in
// the order bias, then per in-bounds tap (kd, kh) every input channel, then
// the width taps — fixed by the geometry, so results do not depend on batch
// size, worker count or scheduling. Channels past OutC (an OutC%4 tail)
// read zeroW and write into scratch, one row of ow values.
func (c *Conv3D) convGroup(xp, y []float32, in, out tensor.Shape, oc0, z int, zeroW, scratch []float32) {
	id, ih, pitch := in[1], in[2], in[3]+2*c.Pad
	od, oh, ow := out[1], out[2], out[3]
	k, s, p, k3 := c.K, c.Stride, c.Pad, c.K*c.K*c.K
	wd, bd := c.W.Value.Data(), c.B.Value.Data()
	xChan := id * ih * pitch
	var w [4][]float32
	var bias [4]float32
	for j := range w {
		w[j] = zeroW
		if oc := oc0 + j; oc < c.OutC {
			w[j] = wd[oc*c.InC*k3:][:c.InC*k3]
			bias[j] = bd[oc]
		}
	}
	var rows [4][]float32
	for yy := 0; yy < oh; yy++ {
		for j := range rows {
			rows[j] = scratch
			if oc := oc0 + j; oc < c.OutC {
				rows[j] = y[((oc*od+z)*oh+yy)*ow:][:ow]
			}
			for i := range rows[j] {
				rows[j][i] = bias[j]
			}
		}
		for kd := 0; kd < k; kd++ {
			zi := z*s + kd - p
			if zi < 0 || zi >= id {
				continue
			}
			for kh := 0; kh < k; kh++ {
				yi := yy*s + kh - p
				if yi < 0 || yi >= ih {
					continue
				}
				x := xp[(zi*ih+yi)*pitch:]
				if k == 3 && s == 1 {
					fwdRowK3(&rows, x, xChan, &w, (kd*3+kh)*3, c.InC)
				} else {
					fwdRowTaps(&rows, x, xChan, &w, (kd*k+kh)*k, c.InC, k, s)
				}
			}
		}
	}
}

// fwdRowK3Go is the k=3, stride-1 row update in pure Go: rows are four
// output-channel rows of one (z, y), x is input channel 0's padded row for
// tap (kd, kh) with channel ic's row xChan further on, w[j] holds output
// channel j's InC·27 weights and wr = (kd·3+kh)·3. One pass over the width
// loads each x value once and feeds all twelve multiply-adds from
// registers. It is fwdRowK3 wherever there is no vector body, that body's
// tail and its differential reference.
func fwdRowK3Go(rows *[4][]float32, x []float32, xChan int, w *[4][]float32, wr, inC int) {
	y0 := rows[0]
	n := len(y0)
	y1, y2, y3 := rows[1][:n], rows[2][:n], rows[3][:n]
	for ic := 0; ic < inC; ic++ {
		xr := x[ic*xChan:][:n+2]
		x0, x1, x2 := xr[:n], xr[1:][:n], xr[2:][:n]
		a, b, c, d := w[0][ic*27+wr:][:3], w[1][ic*27+wr:][:3], w[2][ic*27+wr:][:3], w[3][ic*27+wr:][:3]
		a0, a1, a2, b0, b1, b2 := a[0], a[1], a[2], b[0], b[1], b[2]
		c0, c1, c2, d0, d1, d2 := c[0], c[1], c[2], d[0], d[1], d[2]
		for i := range y0 {
			u, v, t := x0[i], x1[i], x2[i]
			y0[i] += a0*u + a1*v + a2*t
			y1[i] += b0*u + b1*v + b2*t
			y2[i] += c0*u + c1*v + c2*t
			y3[i] += d0*u + d1*v + d2*t
		}
	}
}

// fwdRowTaps is fwdRowK3 for any kernel extent k and stride s, one width
// tap at a time: rows[j][i] += w[j][ic·k³+wr+kw]·x[ic·xChan+i·s+kw]. The
// padding keeps every tap of every output position in bounds.
func fwdRowTaps(rows *[4][]float32, x []float32, xChan int, w *[4][]float32, wr, inC, k, s int) {
	y0 := rows[0]
	n := len(y0)
	y1, y2, y3 := rows[1][:n], rows[2][:n], rows[3][:n]
	k3 := k * k * k
	for ic := 0; ic < inC; ic++ {
		xr := x[ic*xChan:][:(n-1)*s+k]
		for kw := 0; kw < k; kw++ {
			o := ic*k3 + wr + kw
			a, b, c, d := w[0][o], w[1][o], w[2][o], w[3][o]
			for i := range y0 {
				u := xr[i*s+kw]
				y0[i] += a * u
				y1[i] += b * u
				y2[i] += c * u
				y3[i] += d * u
			}
		}
	}
}
