// Package nn implements the CosmoFlow 3D convolutional neural network:
// direct 3D convolution (one forward row kernel over four output channels
// at a time, and one backward kernel pair), average pooling,
// fully-connected layers, leaky-ReLU activations, and the network container
// with FLOP accounting.
//
// All layers operate on single-sample tensors, matching the paper's
// mini-batch size of one per rank (§III-B): convolutional tensors are rank-4
// [C D H W], dense tensors rank-1 [N]. Backpropagation accumulates parameter
// gradients into each Param's Grad tensor; the trainer zeroes them between
// steps and aggregates them across ranks. Each layer has one forward
// kernel, written over a batch: Forward runs it at B=1, and for serving
// Network.InferBatch runs a micro-batch of same-shaped volumes through it
// as one (sample × task) index space, each sample's output bit-identical
// at every batch size.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Param is one learnable parameter tensor and its gradient accumulator.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// NumElements returns the parameter's element count.
func (p *Param) NumElements() int { return p.Value.NumElements() }

// Layer is one differentiable network stage. Forward must be called before
// Backward; layers cache whatever activations they need in between, so a
// layer instance serves exactly one in-flight sample at a time (batch size
// one per rank, as in the paper).
type Layer interface {
	// Name identifies the layer in profiles and Table-I style reports.
	Name() string
	// Forward computes the layer output for input x.
	Forward(x *tensor.Tensor) *tensor.Tensor
	// Backward consumes the loss gradient w.r.t. the layer output and
	// returns the gradient w.r.t. the layer input, accumulating parameter
	// gradients as a side effect.
	Backward(dy *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's learnable parameters (empty for
	// activations and pooling).
	Params() []*Param
	// OutputShape returns the output shape for a given input shape.
	OutputShape(in tensor.Shape) tensor.Shape
	// FwdFLOPs and BwdFLOPs return the floating-point operation counts of
	// one forward/backward pass for a given input shape, used for the
	// paper's Gflop/s accounting (§V-A).
	FwdFLOPs(in tensor.Shape) int64
	BwdFLOPs(in tensor.Shape) int64
	// inferBatch is the layer's one forward kernel, run over a batch (see
	// infer_batch.go).
	inferBatch(xs []*tensor.Tensor, ctx *batchCtx) []*tensor.Tensor
	// cloneFor returns a replica of the layer sharing its parameters; a nil
	// pool keeps the original's pool, for layers that have one (see
	// clone.go).
	cloneFor(pool *parallel.Pool) Layer
}

// newParam allocates a named parameter with a zeroed gradient.
func newParam(name string, shape ...int) *Param {
	return &Param{Name: name, Value: tensor.New(shape...), Grad: tensor.New(shape...)}
}

// heInit fills w with He-normal initialization (std = sqrt(2/fanIn)), the
// standard choice for ReLU-family activations.
func heInit(w *tensor.Tensor, fanIn int, rng *rand.Rand) {
	std := math.Sqrt(2.0 / float64(fanIn))
	w.RandNormal(rng, 0, std)
}

// convOutDim computes the output extent of a convolution along one axis.
// A kernel wider than the padded input has no valid position at any
// stride; it is rejected before the division, whose truncation toward zero
// would otherwise turn (in+2·pad−k)/stride = −1/2 into an extent of 1.
func convOutDim(in, k, stride, pad int) int {
	if in+2*pad < k {
		panic(fmt.Sprintf("nn: convolution kernel %d exceeds padded input extent %d (in=%d pad=%d stride=%d)",
			k, in+2*pad, in, pad, stride))
	}
	return (in+2*pad-k)/stride + 1
}
