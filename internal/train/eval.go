package train

import (
	"fmt"
	"math"

	"repro/internal/cosmo"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Predict runs the network on one sample and returns the normalized
// three-parameter prediction. It delegates to a one-shot Predictor so both
// APIs run the identical inference-only forward pass; for repeated calls
// on a hot path, hold a Predictor, which reuses its buffers across calls.
func Predict(net *nn.Network, s *cosmo.Sample) [3]float32 {
	p := Predictor{net: net}
	return p.Predict(s)
}

// Predictor runs repeated single-sample inference on one network, reusing
// its input tensor across calls so the serving hot path neither copies the
// voxel volume nor allocates a fresh tensor header per sample. It uses the
// network's inference-only forward, which leaves no activation caches
// behind. A Predictor owns its network's in-flight state and therefore
// serves one goroutine; concurrent serving pairs one Predictor with each
// nn replica.
type Predictor struct {
	net *nn.Network
	x   tensor.Tensor
}

// NewPredictor builds a reusable predictor around net.
func NewPredictor(net *nn.Network) *Predictor { return &Predictor{net: net} }

// Predict returns the normalized three-parameter prediction for s.
func (p *Predictor) Predict(s *cosmo.Sample) [3]float32 {
	return p.PredictVoxels(s.Voxels, s.NumChannels(), s.Dim)
}

// PredictVoxels predicts directly from a raw voxel buffer of the given
// channel count and edge length, the form serving requests arrive in. The
// buffer is wrapped, not copied (no layer mutates its input), and must
// hold exactly channels·dim³ values — a mismatch panics, as with
// tensor.FromData.
func (p *Predictor) PredictVoxels(voxels []float32, channels, dim int) [3]float32 {
	p.x.Wrap(voxels, channels, dim, dim, dim)
	y := p.net.Infer(&p.x)
	// Drop the wrapped reference so an idle predictor (e.g. a quiet
	// serving replica) does not pin the request's voxel buffer.
	p.x.Release()
	var out [3]float32
	copy(out[:], y.Data())
	return out
}

// BatchPredictor runs repeated micro-batch inference on one network through
// nn.InferBatch, reusing its input tensor wrappers across calls so the
// serving hot path neither copies voxel volumes nor allocates per-batch
// tensor headers; the network's own buffer pool recycles the intermediate
// activations. Outputs are bit-identical to per-sample Predictor calls.
// Like Predictor, a BatchPredictor owns its network's in-flight state and
// serves one goroutine; concurrent serving pairs one with each nn replica.
type BatchPredictor struct {
	net    *nn.Network
	xs     []tensor.Tensor
	ptrs   []*tensor.Tensor
	outs   [][3]float32
	voxels [][]float32 // PredictSamples' reusable batch-assembly buffer
}

// NewBatchPredictor builds a reusable batch predictor around net.
func NewBatchPredictor(net *nn.Network) *BatchPredictor { return &BatchPredictor{net: net} }

// PredictVoxels predicts a micro-batch of raw voxel buffers, each holding
// exactly channels·dim³ values in [C D H W] order (a mismatch panics, as
// with tensor.FromData). The buffers are wrapped, not copied. The returned
// slice is reused by the next call.
func (p *BatchPredictor) PredictVoxels(batch [][]float32, channels, dim int) [][3]float32 {
	n := len(batch)
	if cap(p.xs) < n {
		p.xs = make([]tensor.Tensor, n)
		p.ptrs = make([]*tensor.Tensor, n)
		p.outs = make([][3]float32, n)
	}
	p.xs, p.ptrs, p.outs = p.xs[:n], p.ptrs[:n], p.outs[:n]
	for i, v := range batch {
		p.xs[i].Wrap(v, channels, dim, dim, dim)
		p.ptrs[i] = &p.xs[i]
	}
	// Drop the wrapped references on every exit path — even a panicking
	// forward must not leave an idle predictor pinning the batch's voxel
	// buffers.
	defer func() {
		for i := range p.xs {
			p.xs[i].Release()
		}
	}()
	ys := p.net.InferBatch(p.ptrs)
	for i, y := range ys {
		copy(p.outs[i][:], y.Data())
	}
	return p.outs
}

// PredictSamples predicts a micro-batch of samples (all sharing one shape),
// the Evaluate fast path. The returned slice is reused by the next call.
func (p *BatchPredictor) PredictSamples(batch []*cosmo.Sample) [][3]float32 {
	if len(batch) == 0 {
		return nil
	}
	if cap(p.voxels) < len(batch) {
		p.voxels = make([][]float32, len(batch))
	}
	p.voxels = p.voxels[:len(batch)]
	for i, s := range batch {
		p.voxels[i] = s.Voxels
	}
	return p.PredictVoxels(p.voxels, batch[0].NumChannels(), batch[0].Dim)
}

// Estimate holds one test sample's true and predicted physical parameters.
type Estimate struct {
	True, Pred cosmo.Params
}

// evalBatch is the micro-batch size Evaluate feeds the batched inference
// path; large enough to amortize per-batch overhead, small enough that the
// activation working set of scaled-down runs stays cache-resident.
const evalBatch = 8

// Evaluate predicts every test sample through the batched inference path
// and denormalizes through the priors, producing the scatter data behind
// Figure 6. Results are bit-identical to per-sample Predict.
func Evaluate(net *nn.Network, testSet []*cosmo.Sample, priors cosmo.Priors) []Estimate {
	out := make([]Estimate, 0, len(testSet))
	p := NewBatchPredictor(net)
	for lo := 0; lo < len(testSet); lo += evalBatch {
		hi := lo + evalBatch
		if hi > len(testSet) {
			hi = len(testSet)
		}
		preds := p.PredictSamples(testSet[lo:hi])
		for i, s := range testSet[lo:hi] {
			out = append(out, Estimate{
				True: priors.Denormalize(s.Target),
				Pred: priors.Denormalize(preds[i]),
			})
		}
	}
	return out
}

// RelativeErrors computes the paper's per-parameter average relative error
// |pred − true| / |pred| (§VII-A uses the model estimate in the
// denominator) over a set of estimates, returned in (ΩM, σ8, ns) order.
func RelativeErrors(estimates []Estimate) [3]float64 {
	var sums [3]float64
	for _, e := range estimates {
		p := e.Pred.Vector()
		tr := e.True.Vector()
		for i := 0; i < 3; i++ {
			den := math.Abs(p[i])
			if den < 1e-12 {
				den = 1e-12
			}
			sums[i] += math.Abs(p[i]-tr[i]) / den
		}
	}
	n := float64(len(estimates))
	if n == 0 {
		return sums
	}
	for i := range sums {
		sums[i] /= n
	}
	return sums
}

// FormatEstimates renders a Figure-6-style table of estimates.
func FormatEstimates(estimates []Estimate) string {
	s := fmt.Sprintf("%-28s %-28s\n", "true (ΩM, σ8, ns)", "predicted (ΩM, σ8, ns)")
	for _, e := range estimates {
		s += fmt.Sprintf("%.4f %.4f %.4f           %.4f %.4f %.4f\n",
			e.True.OmegaM, e.True.Sigma8, e.True.NS,
			e.Pred.OmegaM, e.Pred.Sigma8, e.Pred.NS)
	}
	return s
}

// SustainedFlops converts a result's throughput into sustained Flop/s using
// the network's per-sample FLOP count — the metric behind the paper's
// 535 Gflop/s single-node and 3.5 Pflop/s full-scale figures (§V-B, §V-D).
func SustainedFlops(res *Result) float64 {
	if len(res.Epochs) == 0 {
		return 0
	}
	fwd, bwd := res.Net.TotalFLOPs()
	perSample := float64(fwd + bwd)
	// Average samples/sec over the trained epochs after the first (the
	// paper excludes warm-up epochs from its averages, §V-C). Epochs a
	// resume skipped carry zero stats and are not trained epochs.
	var trained []EpochStats
	for _, e := range res.Epochs {
		if e.Steps > 0 {
			trained = append(trained, e)
		}
	}
	if len(trained) == 0 {
		return 0
	}
	if len(trained) > 1 {
		trained = trained[1:]
	}
	var rate float64
	for _, e := range trained {
		rate += e.SamplesSec
	}
	return perSample * rate / float64(len(trained))
}
