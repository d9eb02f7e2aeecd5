package nn

import (
	"repro/internal/tensor"
)

// widthBlock is the output-width blocking factor of the inner kernel. The
// paper blocks by 28 voxels so that 28×16 accumulators fill the 32 AVX512
// registers (Algorithm 1); we keep the same structure with remainder
// handling so any output width works.
const widthBlock = 28

// algorithm1 is the Go port of the paper's Algorithm 1: direct forward
// convolution over 16-channel-blocked input, output and weight arrays, with
// the output width dimension blocked by 28 voxels and the three innermost
// loops (ow, oc, ic) fully regular so the compiler can keep them in
// registers. Each sample is converted to the blocked layout, one
// parallel-for runs every (sample, channel-block, depth) slab with each
// task writing a disjoint block, as in §III-C, and the results are
// converted back. Blocked scratch comes from ctx's buffer pool; useBlocked
// guarantees the channel counts are multiples of BlockSize, so recycled
// buffers have no padding lanes to clear.
func (c *Conv3D) algorithm1(xs []*tensor.Tensor, ctx *batchCtx) []*tensor.Tensor {
	in := xs[0].Shape()
	out := c.OutputShape(in)
	c.ensurePacked()

	B := len(xs)
	srcs := make([]*tensor.Blocked, B)
	dsts := make([]*tensor.Blocked, B)
	c.pool.ForEach(B, 1, func(b int) {
		srcs[b] = tensor.WrapBlocked(ctx.buf.Get(in.NumElements()), c.InC, in[1], in[2], in[3])
		tensor.ToBlockedInto(xs[b], srcs[b])
		dsts[b] = tensor.WrapBlocked(ctx.buf.Get(out.NumElements()), c.OutC, out[1], out[2], out[3])
	})

	// One accumulator per worker chunk, reset from the bias at every width
	// block, so no state carries between tasks.
	slabs := (c.OutC / tensor.BlockSize) * out[1]
	c.pool.For(B*slabs, 1, func(lo, hi int) {
		acc := make([]float32, widthBlock*tensor.BlockSize)
		for task := lo; task < hi; task++ {
			c.blockedSlab(srcs[task/slabs], dsts[task/slabs], task%slabs, acc)
		}
	})

	ys := make([]*tensor.Tensor, B)
	c.pool.ForEach(B, 1, func(b int) {
		ctx.buf.Put(srcs[b].Data)
		ys[b] = ctx.alloc(out...)
		tensor.FromBlockedInto(dsts[b], ys[b])
		ctx.buf.Put(dsts[b].Data)
	})
	return ys
}

// ensurePacked rebuilds the blocked weight pack if the weight version moved.
func (c *Conv3D) ensurePacked() {
	if c.packed == nil || c.packedSeen != c.wVersion {
		c.packed = tensor.PackWeights(c.W.Value)
		c.packedSeen = c.wVersion
	}
}

// blockedSlab computes one (output-channel-block, depth) slab of the
// Algorithm-1 kernel, task = ob·od + z, using acc (widthBlock·BlockSize
// values) as its accumulators. It is the blocked kernel's unit of thread
// decomposition; every element of the slab is written, so scheduling
// (sample, slab) tasks in any order over any worker count produces
// bit-identical results.
func (c *Conv3D) blockedSlab(src, dst *tensor.Blocked, task int, acc []float32) {
	id, ih, iw := src.D, src.H, src.W
	od, oh, ow := dst.D, dst.H, dst.W
	k, p := c.K, c.Pad
	bs := tensor.BlockSize
	wgt := c.packed
	bd := c.B.Value.Data()
	icb := src.CB

	ob := task / od
	z := task % od
	for yy := 0; yy < oh; yy++ {
		for x0 := 0; x0 < ow; x0 += widthBlock {
			wb := widthBlock
			if x0+wb > ow {
				wb = ow - x0
			}
			// Initialize accumulators with the bias.
			for j := 0; j < wb; j++ {
				for oc := 0; oc < bs; oc++ {
					acc[j*bs+oc] = bd[ob*bs+oc]
				}
			}
			for ib := 0; ib < icb; ib++ {
				for kd := 0; kd < k; kd++ {
					zi := z + kd - p
					if zi < 0 || zi >= id {
						continue
					}
					for kh := 0; kh < k; kh++ {
						yi := yy + kh - p
						if yi < 0 || yi >= ih {
							continue
						}
						srcRow := ((ib*id+zi)*ih + yi) * iw * bs
						for kw := 0; kw < k; kw++ {
							wOff := ((((ob*icb+ib)*k+kd)*k+kh)*k + kw) * bs * bs
							wBlk := wgt.Data[wOff : wOff+bs*bs]
							for j := 0; j < wb; j++ {
								xi := x0 + j + kw - p
								if xi < 0 || xi >= iw {
									continue
								}
								sRow := src.Data[srcRow+xi*bs : srcRow+xi*bs+bs]
								aRow := acc[j*bs : j*bs+bs]
								// Inner 16×16 micro-kernel: the FMA
								// block Algorithm 1 JITs to AVX512.
								for ic := 0; ic < bs; ic++ {
									sv := sRow[ic]
									if sv == 0 {
										continue
									}
									wRow := wBlk[ic*bs : ic*bs+bs]
									for oc := 0; oc < bs; oc++ {
										aRow[oc] += wRow[oc] * sv
									}
								}
							}
						}
					}
				}
			}
			// Flush accumulators to the blocked destination.
			dstRow := ((ob*od+z)*oh + yy) * ow * bs
			for j := 0; j < wb; j++ {
				copy(dst.Data[dstRow+(x0+j)*bs:dstRow+(x0+j)*bs+bs], acc[j*bs:j*bs+bs])
			}
		}
	}
}
