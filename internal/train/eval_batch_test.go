package train

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/cosmo"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

func evalTestNet(t *testing.T) *nn.Network {
	t.Helper()
	net, err := nn.BuildCosmoFlow(nn.TopologyConfig{InputDim: 8, BaseChannels: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	net.SetTraining(false)
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

// TestValidateLeavesModeLayersAlone: the trainer's validation pass scores
// through the inference path, so it must neither advance a training-mode
// dropout mask nor fold validation samples into batch-norm running
// statistics. A replica that validated must stay bit-identical, in both
// modes, to one that did not.
func TestValidateLeavesModeLayersAlone(t *testing.T) {
	pool := parallel.NewPool(1)
	defer pool.Close()
	build := func() *nn.Network {
		rng := rand.New(rand.NewSource(11))
		return &nn.Network{InputDim: 8, Layers: []nn.Layer{
			nn.NewConv3D("conv", 1, 2, 3, 1, 1, pool, rng),
			nn.NewBatchNorm3D("bn", 2),
			nn.NewLeakyReLU("act", 0.2),
			nn.NewDropout("drop", 0.5, 5),
			nn.NewFlatten("flat"),
			nn.NewDense("fc", 2*8*8*8, 3, pool, rng),
		}}
	}
	validated, untouched := build(), build()
	valSet := evalTestSamples(11, 13)
	world, err := comm.NewWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	if loss := validate(world.Comm(0), validated, valSet, 0, 1); !(loss > 0) {
		t.Fatalf("validation loss %v, want positive", loss)
	}

	s := valSet[0]
	x := tensor.FromData(s.Voxels, s.NumChannels(), s.Dim, s.Dim, s.Dim)
	same := func(what string, a, b *tensor.Tensor) {
		for i, v := range a.Data() {
			if math.Float32bits(v) != math.Float32bits(b.Data()[i]) {
				t.Fatalf("%s: output %d is %v after validation, %v without", what, i, v, b.Data()[i])
			}
		}
	}
	// Inference reads the batch-norm running statistics; a training-mode
	// forward draws the next dropout mask.
	same("inference", validated.Infer(x), untouched.Infer(x))
	same("training forward", validated.Forward(x), untouched.Forward(x))
}
