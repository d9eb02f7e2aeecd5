package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// The backward-weights and backward-data operators of §III-C. Both have a
// pure-Go body, which runs every geometry, is the !amd64 || purego path
// and is the vector bodies' differential reference; both also have an
// AVX2 body (conv3d_backward_amd64.go) that vectorConv selects for K = 3
// and that moves no bit.
//
// Go bodies: a kernel tap (kd, kh) pairs each output row (z, y) in a range
// with one input row; the ranges are computed once per call, so padding
// costs no per-element branch and a 1³ volume visits its one in-bounds tap
// instead of all 27. Within a row the work is a dot product (weights) or
// an axpy (data) along the width, blocked over output channels so one x or
// dx access feeds several multiply-adds.
//
// Every dW element is a float64 total, started at +0, in (z, y) order, of
// float32 row sums over the width started at +0, added to dW as one
// float32; every dB element is the float64 sum of its channel's dy in
// storage order; every dx element is a float32 sum, started at +0, of one
// four-channel term ((w0·d0 + w1·d1) + w2·d2) + w3·d3 per (output-channel
// block, kd, kh, kw) in that order, a channel past OutC contributing a
// zero weight times channel OutC-1's dy. These chains are independent
// across elements, so the vector bodies run whole chains in lanes (output
// channels for dW and dB, width or input channels for dx) with separate
// multiplies and adds, and every element is accumulated by exactly one
// task: results are bit-identical for any worker count and on either
// body.

// dwICChunk is the number of input channels per backward-weights task, on
// either body; a constant, so the task grid never depends on the worker
// count.
const dwICChunk = 16

// bwdScratch holds the backward kernels' per-call working copies, sized at
// the first Backward and reused: each is rebuilt from this call's operands
// before it is read, so nothing carries over between calls.
type bwdScratch struct {
	xp   []float32 // x, width-padded (dW)
	dyT  []float32 // dy channel-last, eight channels per octet (vector dW)
	dyP  []float32 // dy width-padded, channels padded to 4 (vector dx)
	wT   []float32 // W′[tap][oc][ic] over the visited taps (vector dx)
	mask []int32   // per width tap, the row positions it adds into (vector dx)
}

// grow returns s resliced to n elements, reallocated if its capacity is
// short. The contents are not cleared.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// convGeom is the per-call geometry shared by the two backward kernels.
type convGeom struct {
	id, ih, iw int
	od, oh, ow int
	// Per axis and kernel tap kk, the output interval [lo[kk], hi[kk]) on
	// which the tap reads an in-bounds input coordinate o*s + kk - p; empty
	// (lo >= hi) if the tap never does.
	z, y, x tapRanges
}

type tapRanges struct{ lo, hi []int }

func newTapRanges(k, s, p, extent, outExtent int) tapRanges {
	r := tapRanges{make([]int, k), make([]int, k)}
	for kk := 0; kk < k; kk++ {
		if kk < p {
			r.lo[kk] = (p - kk + s - 1) / s
		}
		if n := extent + p - kk; n > 0 {
			r.hi[kk] = min((n+s-1)/s, outExtent)
		}
	}
	return r
}

// Backward implements Layer, computing both the backward-weights and the
// backward-data operators (§III-C).
func (c *Conv3D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	c.backwardParams(dy)
	return c.backwardInput(dy)
}

// backwardParams implements paramsOnlyBackward: the backward-weights
// operator alone, for a first layer whose input gradient nobody reads.
func (c *Conv3D) backwardParams(dy *tensor.Tensor) {
	c.backwardWeights(c.backwardGeom(dy), dy.Data())
}

// backwardInput is the backward-data operator alone: it returns dx.
func (c *Conv3D) backwardInput(dy *tensor.Tensor) *tensor.Tensor {
	return c.backwardData(c.backwardGeom(dy), dy.Data())
}

// backwardGeom validates dy against the cached forward input and returns
// the geometry both kernels work from.
func (c *Conv3D) backwardGeom(dy *tensor.Tensor) convGeom {
	if c.x == nil {
		panic("nn: Conv3D.Backward called before Forward")
	}
	in := c.x.Shape()
	out := c.OutputShape(in)
	if !dy.Shape().Equal(out) {
		panic(fmt.Sprintf("nn: %s backward expects %v gradient for %v input, got %v",
			c.Name(), out, in, dy.Shape()))
	}
	return convGeom{
		id: in[1], ih: in[2], iw: in[3],
		od: out[1], oh: out[2], ow: out[3],
		z: newTapRanges(c.K, c.Stride, c.Pad, in[1], out[1]),
		y: newTapRanges(c.K, c.Stride, c.Pad, in[2], out[2]),
		x: newTapRanges(c.K, c.Stride, c.Pad, in[3], out[3]),
	}
}

// backwardWeights accumulates dW and dB, on the vector body where
// vectorConv selects one. On the Go body a task owns the dW slice of one
// output-channel pair × input-channel chunk (and, for the first chunk, the
// pair's bias entries), so no reduction across tasks is needed — the
// paper's "sufficiently many channel blocks" strategy (§III-C). x is read
// through a width-padded copy: every width tap of every output position is
// in bounds, and one pass over a dy row yields all K of them.
func (c *Conv3D) backwardWeights(g convGeom, dyd []float32) {
	if vectorConv && c.backwardWeightsVector(g, dyd) {
		return
	}
	k, s, p, k3 := c.K, c.Stride, c.Pad, c.K*c.K*c.K
	pitch := g.iw + 2*p
	xp := c.padInput(g)
	dwd := c.W.Grad.Data()
	icChunks := (c.InC + dwICChunk - 1) / dwICChunk
	c.pool.ForEach((c.OutC+1)/2*icChunks, 1, func(task int) {
		oc0 := task / icChunks * 2
		oc1 := min(oc0+1, c.OutC-1) // an odd tail pairs the channel with itself
		icLo := task % icChunks * dwICChunk
		if icLo == 0 {
			c.biasGrad(dyd, g, oc0, oc1+1)
		}
		var buf [6]float64 // K ≤ 3's totals stay on the stack
		tot := buf[:]
		if 2*k > len(buf) {
			tot = make([]float64, 2*k)
		}
		tot = tot[:2*k]
		for ic := icLo; ic < min(icLo+dwICChunk, c.InC); ic++ {
			for kd := 0; kd < k; kd++ {
				for kh := 0; kh < k; kh++ {
					if g.z.lo[kd] >= g.z.hi[kd] || g.y.lo[kh] >= g.y.hi[kh] {
						continue
					}
					clear(tot)
					for z := g.z.lo[kd]; z < g.z.hi[kd]; z++ {
						for y := g.y.lo[kh]; y < g.y.hi[kh]; y++ {
							d0 := dyd[((oc0*g.od+z)*g.oh+y)*g.ow:][:g.ow]
							d1 := dyd[((oc1*g.od+z)*g.oh+y)*g.ow:][:g.ow]
							xr := xp[((ic*g.id+z*s+kd-p)*g.ih+y*s+kh-p)*pitch:][:pitch]
							dwRow(tot, d0, d1, xr, s)
						}
					}
					wr := (kd*k + kh) * k
					for kw := 0; kw < k; kw++ {
						dwd[(oc0*c.InC+ic)*k3+wr+kw] += float32(tot[kw])
						if oc1 != oc0 {
							dwd[(oc1*c.InC+ic)*k3+wr+kw] += float32(tot[k+kw])
						}
					}
				}
			}
		}
	})
}

// padInput returns the cached input, width-padded into the layer's
// scratch (padRows), its rows split across the pool.
func (c *Conv3D) padInput(g convGeom) []float32 {
	p, xd := c.Pad, c.x.Data()
	pitch, rows := g.iw+2*p, len(xd)/g.iw
	c.bwd.xp = grow(c.bwd.xp, rows*pitch)
	xp := c.bwd.xp
	c.pool.For(rows, 1+(1<<12)/pitch, func(lo, hi int) {
		padRows(xp[lo*pitch:hi*pitch], xd[lo*g.iw:hi*g.iw], g.iw, p)
	})
	return xp
}

// biasGrad adds to dB[oc] for oc in [lo, hi) the float64 sum of channel
// oc's dy.
func (c *Conv3D) biasGrad(dyd []float32, g convGeom, lo, hi int) {
	vol := g.od * g.oh * g.ow
	dbd := c.B.Grad.Data()
	for oc := lo; oc < hi; oc++ {
		var db float64
		for _, v := range dyd[oc*vol:][:vol] {
			db += float64(v)
		}
		dbd[oc] += float32(db)
	}
}

// dwRow adds to tot[kw] and tot[k+kw], k = len(tot)/2, the dot products of
// dy rows d0 and d1 with the padded x row xr at tap kw: Σ d[i]·xr[i·s+kw].
// For k == 3 all three taps of both channels come from one pass, in six
// independent accumulators. A row's sums are float32 (at most ow terms) and
// are promoted into the float64 totals, which keeps dW at the accuracy of
// an all-float64 accumulation without two converts per multiply-add.
func dwRow(tot []float64, d0, d1, xr []float32, s int) {
	d1 = d1[:len(d0)]
	if len(tot) == 6 {
		var a0, a1, a2, b0, b1, b2 float32
		for i, u := range d0 {
			x, v := xr[i*s:][:3], d1[i]
			a0 += u * x[0]
			a1 += u * x[1]
			a2 += u * x[2]
			b0 += v * x[0]
			b1 += v * x[1]
			b2 += v * x[2]
		}
		for j, a := range [6]float32{a0, a1, a2, b0, b1, b2} {
			tot[j] += float64(a)
		}
		return
	}
	k := len(tot) / 2
	for kw := 0; kw < k; kw++ {
		var a, b float32
		for i, u := range d0 {
			a += u * xr[i*s+kw]
			b += d1[i] * xr[i*s+kw]
		}
		tot[kw] += float64(a)
		tot[k+kw] += float64(b)
	}
}

// backwardData returns dx. A task owns one (input channel, depth) slab of
// dx and accumulates into it from every output channel, four at a time.
func (c *Conv3D) backwardData(g convGeom, dyd []float32) *tensor.Tensor {
	dx := tensor.New(c.x.Shape()...)
	dxd := dx.Data()
	if vectorConv && c.backwardDataVector(g, dyd, dxd) {
		return dx
	}
	zeroW := make([]float32, c.K*c.K*c.K) // weights of the channels an odd tail lacks
	c.pool.ForEach(c.InC*g.id, 1, func(task int) {
		c.dxSlab(dxd, dyd, g, task/g.id, task%g.id, g.x, zeroW)
	})
	return dx
}

// dxSlab accumulates the dx slab of input channel ic at depth zi, over the
// width positions the tap ranges xr admit (g.x for all of them).
func (c *Conv3D) dxSlab(dxd, dyd []float32, g convGeom, ic, zi int, xr tapRanges, zeroW []float32) {
	k, s, p, k3 := c.K, c.Stride, c.Pad, c.K*c.K*c.K
	wd := c.W.Value.Data()
	var w, d [4][]float32
	for oc0 := 0; oc0 < c.OutC; oc0 += len(w) {
		for j := range w {
			w[j] = zeroW
			if oc0+j < c.OutC {
				w[j] = wd[((oc0+j)*c.InC+ic)*k3:][:k3]
			}
		}
		for kd := 0; kd < k; kd++ {
			n := zi + p - kd // z·s, if output depth z reads zi at tap kd
			if n < 0 || n%s != 0 || n/s >= g.od {
				continue
			}
			for kh := 0; kh < k; kh++ {
				for y := g.y.lo[kh]; y < g.y.hi[kh]; y++ {
					for j := range d {
						d[j] = dyd[((min(oc0+j, c.OutC-1)*g.od+n/s)*g.oh+y)*g.ow:][:g.ow]
					}
					dxr := dxd[((ic*g.id+zi)*g.ih+y*s+kh-p)*g.iw:][:g.iw]
					dxRow(dxr, s, p, xr, &d, &w, (kd*k+kh)*k)
				}
			}
		}
	}
}

// dxRow adds to the dx row dst the contribution of the four dy rows d
// through their width taps w[j][wr+kw]: per tap kw one axpy
// dst[i·s+kw-p] += Σ_j w_j·d_j[i] over the tap's valid range, so one dx
// load and store carries four multiply-adds.
func dxRow(dst []float32, s, p int, x tapRanges, d, w *[4][]float32, wr int) {
	for kw, h := range x.hi {
		d0, d1, d2, d3 := d[0][:h], d[1][:h], d[2][:h], d[3][:h]
		w0, w1, w2, w3 := w[0][wr+kw], w[1][wr+kw], w[2][wr+kw], w[3][wr+kw]
		for i := x.lo[kw]; i < h; i++ {
			dst[i*s+kw-p] += w0*d0[i] + w1*d1[i] + w2*d2[i] + w3*d3[i]
		}
	}
}
