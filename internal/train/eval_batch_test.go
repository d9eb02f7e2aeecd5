package train

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/comm"
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

// TestEvaluateUsesBatchedPathBitIdentically checks Evaluate (chunked
// through nn.InferBatch, including a ragged final chunk) produces exactly
// the estimates of the training path's per-sample Forward.
func TestEvaluateUsesBatchedPathBitIdentically(t *testing.T) {
	net := evalTestNet(t)
	// 11 samples: one full evalBatch chunk plus a ragged remainder.
	samples := evalTestSamples(11, 9)
	priors := cosmo.DefaultPriors()
	got := Evaluate(net, samples, priors)
	if len(got) != len(samples) {
		t.Fatalf("Evaluate returned %d estimates, want %d", len(got), len(samples))
	}
	for i, s := range samples {
		want := Estimate{
			True: priors.Denormalize(s.Target),
			Pred: priors.Denormalize([3]float32(net.Forward(sampleTensor(s)).Data())),
		}
		if got[i] != want {
			t.Fatalf("estimate %d: batched %+v != sequential %+v", i, got[i], want)
		}
	}
}

// TestValidateRetainsNothing checks validation leaves no inference state on
// the training network: the live heap after one validate call on a dim-16,
// base-16 network grows by less than 256 KB, against the ≈ 0.8 MB buffer
// pool a batched pass on the network itself would keep.
func TestValidateRetainsNothing(t *testing.T) {
	net, err := nn.BuildCosmoFlow(nn.TopologyConfig{InputDim: 16, BaseChannels: 16, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	valSet := make([]*cosmo.Sample, 3)
	for i := range valSet {
		valSet[i] = cosmo.SyntheticSample(16, [3]float32{0.5, 0.5, 0.5}, int64(i))
	}
	world, err := comm.NewWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	c := world.Comm(0)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	validate(c, net, valSet, 0, 1)
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 256<<10 {
		t.Errorf("validate left %d bytes live on the heap, want < %d", grew, 256<<10)
	}
	runtime.KeepAlive(net)
	runtime.KeepAlive(valSet)
}
