package train

import (
	"fmt"
	"math"

	"repro/internal/cosmo"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Estimate holds one test sample's true and predicted physical parameters.
type Estimate struct {
	True, Pred cosmo.Params
}

// evalBatch is the micro-batch size Evaluate feeds the batched inference
// path; large enough to amortize per-batch overhead, small enough that the
// activation working set of scaled-down runs stays cache-resident.
const evalBatch = 8

// Evaluate predicts every test sample through nn.InferBatch in chunks of
// evalBatch and denormalizes through the priors, producing the scatter
// data behind Figure 6. Results are bit-identical to per-sample inference.
func Evaluate(net *nn.Network, testSet []*cosmo.Sample, priors cosmo.Priors) []Estimate {
	out := make([]Estimate, 0, len(testSet))
	xs := make([]*tensor.Tensor, 0, evalBatch)
	for lo := 0; lo < len(testSet); lo += evalBatch {
		chunk := testSet[lo:min(lo+evalBatch, len(testSet))]
		xs = xs[:0]
		for _, s := range chunk {
			xs = append(xs, sampleTensor(s))
		}
		for i, y := range net.InferBatch(xs) {
			out = append(out, Estimate{
				True: priors.Denormalize(chunk[i].Target),
				Pred: priors.Denormalize([3]float32(y.Data())),
			})
		}
	}
	return out
}

// sampleTensor wraps s's voxels, uncopied, as a [C D D D] network input.
func sampleTensor(s *cosmo.Sample) *tensor.Tensor {
	return tensor.FromData(s.Voxels, s.NumChannels(), s.Dim, s.Dim, s.Dim)
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
