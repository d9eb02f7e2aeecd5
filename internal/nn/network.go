package nn

import (
	"fmt"
	"strings"

	"repro/internal/obsv"
	"repro/internal/tensor"
)

// Network is an ordered stack of layers trained end-to-end.
type Network struct {
	Layers        []Layer
	InputDim      int // spatial edge length of the expected [C D D D] input
	InputChannels int // input channel count; 0 means 1

	// grads is the flat gradient buffer every Param.Grad views, in
	// Params() order (see Grads). BuildCosmoFlow builds it; a network
	// assembled by hand has none.
	grads []float32

	// batchBuf recycles batched-inference activations across layers and
	// calls (lazily built by InferBatch). Like the layers' activation
	// caches it is single-owner state: one network runs one inference at a
	// time, and Clone replicas each get their own.
	batchBuf *tensor.BufPool

	// trace, when set, receives per-layer forward timings from InferBatch
	// (see SetTrace). nil (the default) keeps the untimed hot path: the
	// disabled cost is one pointer check per forward pass.
	trace *obsv.ForwardTrace
}

// SetTrace attaches a per-layer forward trace to the network: InferBatch
// records each layer's wall time into t.Layers (index-aligned with
// n.Layers) and the whole pass into t.Forward. Clone replicas inherit the
// pointer, so one trace aggregates a whole replica pool; pass nil to
// disable. t.Layers must have exactly len(n.Layers) spans — use
// NewForwardTrace(n.LayerNames()).
func (n *Network) SetTrace(t *obsv.ForwardTrace) {
	if t != nil && len(t.Layers) != len(n.Layers) {
		panic(fmt.Sprintf("nn: trace has %d layer spans, network has %d layers",
			len(t.Layers), len(n.Layers)))
	}
	n.trace = t
}

// Trace returns the attached forward trace, nil when tracing is disabled.
func (n *Network) Trace() *obsv.ForwardTrace { return n.trace }

// LayerNames returns the layer names in stack order — the span labels for
// NewForwardTrace.
func (n *Network) LayerNames() []string {
	names := make([]string, len(n.Layers))
	for i, l := range n.Layers {
		names[i] = l.Name()
	}
	return names
}

// Forward runs the full forward pass.
func (n *Network) Forward(x *tensor.Tensor) *tensor.Tensor {
	for _, l := range n.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward runs the full backward pass from the loss gradient, accumulating
// parameter gradients. The gradient w.r.t. the network input is not
// computed: nothing reads it, so the first layer runs only its
// backward-weights operator.
func (n *Network) Backward(dy *tensor.Tensor) {
	n.BackwardWithHook(dy, nil)
}

// paramsOnlyBackward is implemented by layers that can accumulate their
// parameter gradients without also producing the input gradient. The
// network uses it for Layers[0] only; Layer.Backward still returns dx for
// gradient checks and callers that chain layers by hand.
type paramsOnlyBackward interface {
	backwardParams(dy *tensor.Tensor)
}

// BackwardWithHook runs the backward pass, invoking hook after each layer's
// gradients are final. The trainer's communication-overlap mode uses this
// to start aggregating a layer's gradients while earlier layers are still
// back-propagating — the non-blocking pipelining of the CPE ML Plugin
// (§III-D).
func (n *Network) BackwardWithHook(dy *tensor.Tensor, hook func(Layer)) {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		l := n.Layers[i]
		if po, ok := l.(paramsOnlyBackward); i == 0 && ok {
			po.backwardParams(dy)
		} else {
			dy = l.Backward(dy)
		}
		if hook != nil {
			hook(l)
		}
	}
}

// Params returns every learnable parameter in layer order.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ParamCount returns the total number of learnable scalars. The paper's
// network holds slightly over seven million (§V-A).
func (n *Network) ParamCount() int {
	total := 0
	for _, p := range n.Params() {
		total += p.NumElements()
	}
	return total
}

// ParamBytes returns the total parameter size in bytes (28.15 MB in the
// paper, §V-A).
func (n *Network) ParamBytes() int { return 4 * n.ParamCount() }

// ZeroGrads clears all accumulated gradients: the flat buffer in one pass
// when the network has one, else parameter by parameter.
func (n *Network) ZeroGrads() {
	if n.grads != nil {
		clear(n.grads)
		return
	}
	for _, p := range n.Params() {
		p.Grad.Zero()
	}
}

// GradSize returns the flattened gradient length (== ParamCount).
func (n *Network) GradSize() int { return n.ParamCount() }

// Grads returns the flat gradient buffer: every Param.Grad is a view into
// it, in Params() order, so the buffer is what FlattenGrads would produce
// and a write to it is a write to the gradients. The gradient allreduce
// runs on it in place (Algorithm 2, step mc.gradients). It is nil for a
// network not built by BuildCosmoFlow.
func (n *Network) Grads() []float32 { return n.grads }

// bindGrads backs every Param.Grad, in Params() order, with its span of
// one new, zeroed flat buffer.
func (n *Network) bindGrads() {
	flat := make([]float32, n.GradSize())
	off := 0
	for _, p := range n.Params() {
		g := flat[off : off+p.NumElements()]
		p.Grad.Wrap(g, p.Value.Shape()...)
		off += len(g)
	}
	n.grads = flat
}

// FlattenGrads copies all parameter gradients into dst in layer order; dst
// must have length GradSize. This is the buffer handed to the gradient
// allreduce (Algorithm 2, step mc.gradients).
func (n *Network) FlattenGrads(dst []float32) {
	ps := n.Params()
	checkFlatLen("FlattenGrads", ps, dst)
	off := 0
	for _, p := range ps {
		off += copy(dst[off:], p.Grad.Data())
	}
}

// UnflattenGrads scatters src back into the parameter gradients, inverse of
// FlattenGrads.
func (n *Network) UnflattenGrads(src []float32) {
	ps := n.Params()
	checkFlatLen("UnflattenGrads", ps, src)
	off := 0
	for _, p := range ps {
		off += copy(p.Grad.Data(), src[off:])
	}
}

// FlattenParams copies all parameter values into dst in layer order (used
// to broadcast rank-0 weights at startup, §V-A); dst must have length
// ParamCount.
func (n *Network) FlattenParams(dst []float32) {
	ps := n.Params()
	checkFlatLen("FlattenParams", ps, dst)
	off := 0
	for _, p := range ps {
		off += copy(dst[off:], p.Value.Data())
	}
}

// UnflattenParams scatters src into the parameter values.
func (n *Network) UnflattenParams(src []float32) {
	ps := n.Params()
	checkFlatLen("UnflattenParams", ps, src)
	off := 0
	for _, p := range ps {
		off += copy(p.Value.Data(), src[off:])
	}
}

// checkFlatLen panics, before any copy, unless buf holds exactly one
// element per scalar of ps — the flat layout every Flatten/Unflatten uses.
func checkFlatLen(op string, ps []*Param, buf []float32) {
	want := 0
	for _, p := range ps {
		want += p.NumElements()
	}
	if len(buf) != want {
		panic(fmt.Sprintf("nn: %s buffer length %d, want %d", op, len(buf), want))
	}
}

// InvalidateWeights does nothing. Every kernel reads Param.Value
// directly, so a weight write is visible to the next pass without it. It
// stays only because the benchmark's shadow training step
// (benchmark/train.go) still calls it; deleting that step and this method
// is ROADMAP item 2.
func (n *Network) InvalidateWeights() {}

// InputShape returns the network's expected input shape.
func (n *Network) InputShape() tensor.Shape {
	c := n.InputChannels
	if c < 1 {
		c = 1
	}
	return tensor.Shape{c, n.InputDim, n.InputDim, n.InputDim}
}

// TotalFLOPs returns the forward and backward FLOP counts for one sample,
// the quantities behind the paper's 69.33 Gflop/sample figure (§V-A).
func (n *Network) TotalFLOPs() (fwd, bwd int64) {
	shape := n.InputShape()
	for _, l := range n.Layers {
		fwd += l.FwdFLOPs(shape)
		bwd += l.BwdFLOPs(shape)
		shape = l.OutputShape(shape)
	}
	return fwd, bwd
}

// LayerFLOPs returns per-layer forward/backward FLOPs and output shapes,
// used by the Table-I report.
type LayerFLOPs struct {
	Name     string
	Fwd, Bwd int64
	OutShape tensor.Shape
}

// PerLayerFLOPs computes the FLOP breakdown across all layers.
func (n *Network) PerLayerFLOPs() []LayerFLOPs {
	shape := n.InputShape()
	out := make([]LayerFLOPs, 0, len(n.Layers))
	for _, l := range n.Layers {
		os := l.OutputShape(shape)
		out = append(out, LayerFLOPs{Name: l.Name(), Fwd: l.FwdFLOPs(shape), Bwd: l.BwdFLOPs(shape), OutShape: os})
		shape = os
	}
	return out
}

// Summary renders a human-readable topology table (the Figure-2 analogue).
func (n *Network) Summary() string {
	var b strings.Builder
	shape := n.InputShape()
	fmt.Fprintf(&b, "%-14s %-18s %12s\n", "layer", "output shape", "params")
	fmt.Fprintf(&b, "%-14s %-18s %12s\n", "input", shape.String(), "0")
	for _, l := range n.Layers {
		shape = l.OutputShape(shape)
		params := 0
		for _, p := range l.Params() {
			params += p.NumElements()
		}
		fmt.Fprintf(&b, "%-14s %-18s %12d\n", l.Name(), shape.String(), params)
	}
	fmt.Fprintf(&b, "total parameters: %d (%.2f MB)\n", n.ParamCount(), float64(n.ParamBytes())/1e6)
	return b.String()
}
