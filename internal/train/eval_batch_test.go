package train

import (
	"math/rand"
	"testing"

	"repro/internal/cosmo"
	"repro/internal/nn"
)

func evalTestNet(t *testing.T) *nn.Network {
	t.Helper()
	net, err := nn.BuildCosmoFlow(nn.TopologyConfig{InputDim: 8, BaseChannels: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func evalTestSamples(n int, seed int64) []*cosmo.Sample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*cosmo.Sample, n)
	for i := range out {
		target := [3]float32{rng.Float32(), rng.Float32(), rng.Float32()}
		out[i] = cosmo.SyntheticSample(8, target, rng.Int63())
	}
	return out
}

// TestBatchPredictorMatchesPredict checks the batched hot path returns
// bit-identical predictions to one-shot train.Predict, across batch sizes
// and repeated (buffer-recycling) calls.
func TestBatchPredictorMatchesPredict(t *testing.T) {
	net := evalTestNet(t)
	samples := evalTestSamples(13, 7)
	want := make([][3]float32, len(samples))
	for i, s := range samples {
		want[i] = Predict(net, s)
	}
	bp := NewBatchPredictor(net)
	for _, B := range []int{1, 4, 13} {
		for lo := 0; lo < len(samples); lo += B {
			hi := lo + B
			if hi > len(samples) {
				hi = len(samples)
			}
			got := bp.PredictSamples(samples[lo:hi])
			for i := range got {
				if got[i] != want[lo+i] {
					t.Fatalf("B=%d sample %d: batched %v != sequential %v", B, lo+i, got[i], want[lo+i])
				}
			}
		}
	}
}

// TestEvaluateUsesBatchedPathBitIdentically checks Evaluate (now chunked
// through nn.InferBatch, including a ragged final chunk) produces exactly
// the per-sample estimates.
func TestEvaluateUsesBatchedPathBitIdentically(t *testing.T) {
	net := evalTestNet(t)
	// 11 samples: one full evalBatch chunk plus a ragged remainder.
	samples := evalTestSamples(11, 9)
	priors := cosmo.DefaultPriors()
	got := Evaluate(net, samples, priors)
	if len(got) != len(samples) {
		t.Fatalf("Evaluate returned %d estimates, want %d", len(got), len(samples))
	}
	p := NewPredictor(net)
	for i, s := range samples {
		want := Estimate{
			True: priors.Denormalize(s.Target),
			Pred: priors.Denormalize(p.Predict(s)),
		}
		if got[i] != want {
			t.Fatalf("estimate %d: batched %+v != sequential %+v", i, got[i], want)
		}
	}
}
