package nn

import (
	"fmt"
	"time"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// One forward implementation per layer: inferBatch runs a batch of
// same-shaped samples as one (sample × task) index space over the layer's
// per-sample task function — convGroup (four output channels at one
// depth), poolChannel, applyRange, applyInto — scheduled through
// internal/parallel. Each task owns a disjoint output range and every
// output element's accumulation order is fixed by the geometry alone, so
// sample i's output is bit-identical at every batch size and worker count.
// Layer.Forward is inferBatch at B=1 plus the caching Backward needs, and
// Network.Infer and InferBatch drive one shared layer loop.

// batchCtx carries the shared state of one forward pass: the worker pool
// poolless layers schedule their tasks on, and the buffer pool activations
// and the convolutions' width-padded input copies recycle through. A nil
// buf allocates every buffer fresh and retains none.
type batchCtx struct {
	pool *parallel.Pool
	buf  *tensor.BufPool
}

// alloc returns a tensor over a recycled, UNINITIALIZED buffer. Every
// kernel stores (never accumulates) into all elements of its output, so no
// clearing is needed.
func (ctx *batchCtx) alloc(shape ...int) *tensor.Tensor {
	return tensor.FromData(ctx.buf.Get(tensor.Shape(shape).NumElements()), shape...)
}

// serial runs the tasks of layers without a worker pool of their own on
// the calling goroutine when they are driven by Layer.Forward.
var serial = parallel.NewPool(1)

// forwardOne is the kernel behind Layer.Forward: l's batch forward at B=1
// over freshly allocated buffers.
func forwardOne(l Layer, x *tensor.Tensor) *tensor.Tensor {
	return l.inferBatch([]*tensor.Tensor{x}, &batchCtx{pool: serial})[0]
}

// Infer runs one sample through the network without caching activations
// for a subsequent Backward. It is InferBatch at B=1 except that every
// buffer is allocated fresh and none is retained. A single network still serves one
// Infer at a time; run concurrent inference on Clone replicas.
func (n *Network) Infer(x *tensor.Tensor) *tensor.Tensor {
	return n.forwardBatch([]*tensor.Tensor{x}, nil)[0]
}

// InferBatch runs a micro-batch of same-shaped inputs through the network
// as one forward pass and returns one output per input, each bit-identical
// to Infer on that input. Like Infer, a single network serves one
// InferBatch at a time; run concurrent batches on Clone replicas.
// Intermediate activations recycle through a per-network buffer pool, so
// steady-state inference at any batch size allocates almost nothing beyond
// its outputs.
func (n *Network) InferBatch(xs []*tensor.Tensor) []*tensor.Tensor {
	if n.batchBuf == nil {
		n.batchBuf = tensor.NewBufPool()
	}
	return n.forwardBatch(xs, n.batchBuf)
}

// forwardBatch is the layer loop behind Infer and InferBatch, drawing
// activations from buf (nil: fresh allocations). With a trace attached,
// each layer's kernel time lands in its span (one observation covers the
// whole batch) and the pass in the forward span; untraced passes read no
// clock.
func (n *Network) forwardBatch(xs []*tensor.Tensor, buf *tensor.BufPool) []*tensor.Tensor {
	if len(xs) == 0 {
		return nil
	}
	shape := xs[0].Shape()
	for _, x := range xs[1:] {
		if !x.Shape().Equal(shape) {
			panic(fmt.Sprintf("nn: InferBatch inputs must share one shape; got %v and %v",
				shape, x.Shape()))
		}
	}
	ctx := &batchCtx{pool: n.inferPool(), buf: buf}

	// cur flows through the layers; owned tracks whether its buffers came
	// from the recycler (caller inputs never do) and may return to it once
	// the next layer has consumed them. A zero-copy layer (Flatten's
	// reshape) aliases its input, detected by backing-pointer identity, in
	// which case ownership simply carries.
	tr := n.trace
	var start, last time.Time
	if tr != nil {
		start = time.Now()
		last = start
	}
	cur, owned := xs, false
	for li, l := range n.Layers {
		next := l.inferBatch(cur, ctx)
		if tr != nil {
			now := time.Now()
			tr.Layers[li].Observe(now.Sub(last))
			last = now
		}
		if !sameBacking(next[0], cur[0]) {
			if owned {
				for _, t := range cur {
					ctx.buf.Put(t.Data())
				}
			}
			owned = true
		}
		cur = next
	}
	if tr != nil {
		tr.Forward.Observe(last.Sub(start))
	}
	return cur
}

// inferPool returns the worker pool inference schedules poolless layers
// on: the first compute layer's pool, so the whole forward shares one
// intra-node thread set, or parallel.Default for networks without one.
func (n *Network) inferPool() *parallel.Pool {
	for _, l := range n.Layers {
		switch v := l.(type) {
		case *Conv3D:
			return v.pool
		case *Dense:
			return v.pool
		}
	}
	return parallel.Default
}

// sameBacking reports whether two tensors share the same backing array
// start — true exactly for Flatten's zero-copy reshape.
func sameBacking(a, b *tensor.Tensor) bool {
	ad, bd := a.Data(), b.Data()
	return len(ad) > 0 && len(bd) > 0 && &ad[0] == &bd[0]
}

// inferBatch implements Layer: one width-padded copy of each sample, then
// (sample × four-channel group × output depth) convGroup tasks.
func (c *Conv3D) inferBatch(xs []*tensor.Tensor, ctx *batchCtx) []*tensor.Tensor {
	in := xs[0].Shape()
	out := c.OutputShape(in)
	B, pitch := len(xs), in[3]+2*c.Pad
	xps := make([][]float32, B)
	ys := make([]*tensor.Tensor, B)
	c.pool.ForEach(B, 1, func(b int) {
		xps[b] = padRows(ctx.buf.Get(in.NumElements()/in[3]*pitch), xs[b].Data(), in[3], c.Pad)
		ys[b] = ctx.alloc(out...)
	})
	var zeroW []float32 // weights of the channels an OutC%4 tail lacks
	if c.OutC%4 != 0 {
		zeroW = make([]float32, c.InC*c.K*c.K*c.K)
	}
	per := (c.OutC + 3) / 4 * out[1]
	c.pool.For(B*per, 1, func(lo, hi int) {
		var scratch []float32
		if zeroW != nil {
			scratch = make([]float32, out[3])
		}
		for task := lo; task < hi; task++ {
			b, g := task/per, task%per
			c.convGroup(xps[b], ys[b].Data(), in, out, g/out[1]*4, g%out[1], zeroW, scratch)
		}
	})
	for _, xp := range xps {
		ctx.buf.Put(xp)
	}
	return ys
}

// inferBatch implements Layer, decomposed over (sample × channel).
func (p *AvgPool3D) inferBatch(xs []*tensor.Tensor, ctx *batchCtx) []*tensor.Tensor {
	in := xs[0].Shape()
	out := p.OutputShape(in)
	ys := make([]*tensor.Tensor, len(xs))
	for i := range ys {
		ys[i] = ctx.alloc(out...)
	}
	ch := in[0]
	ctx.pool.ForEach(len(xs)*ch, 1, func(task int) {
		b, c := task/ch, task%ch
		p.poolChannel(xs[b].Data(), ys[b].Data(), in, out, c)
	})
	return ys
}

// inferBatch implements Layer, decomposed over samples (the
// element-wise stages are bandwidth-bound; one sample per task keeps them
// cache-local).
func (l *LeakyReLU) inferBatch(xs []*tensor.Tensor, ctx *batchCtx) []*tensor.Tensor {
	ys := make([]*tensor.Tensor, len(xs))
	for i := range ys {
		ys[i] = ctx.alloc(xs[i].Shape()...)
	}
	ctx.pool.ForEach(len(xs), 1, func(b int) {
		l.applyInto(xs[b].Data(), ys[b].Data())
	})
	return ys
}

// inferBatch implements Layer: y = Wx + b over the whole batch,
// decomposed over (sample × output-row) with contiguous per-sample row
// ranges per worker.
func (d *Dense) inferBatch(xs []*tensor.Tensor, ctx *batchCtx) []*tensor.Tensor {
	ys := make([]*tensor.Tensor, len(xs))
	for i, x := range xs {
		if x.NumElements() != d.In {
			panic(fmt.Sprintf("nn: %s expects %d inputs, got %d", d.Name(), d.In, x.NumElements()))
		}
		ys[i] = ctx.alloc(d.Out)
	}
	d.pool.For(len(xs)*d.Out, 16, func(lo, hi int) {
		for lo < hi {
			b := lo / d.Out
			o0 := lo % d.Out
			o1 := d.Out
			if rem := hi - b*d.Out; rem < o1 {
				o1 = rem
			}
			d.applyRange(xs[b].Data(), ys[b].Data(), o0, o1)
			lo = b*d.Out + o1
		}
	})
	return ys
}

// inferBatch implements Layer: zero-copy reshapes.
func (f *Flatten) inferBatch(xs []*tensor.Tensor, _ *batchCtx) []*tensor.Tensor {
	ys := make([]*tensor.Tensor, len(xs))
	for i, x := range xs {
		ys[i] = x.Reshape(x.NumElements())
	}
	return ys
}
