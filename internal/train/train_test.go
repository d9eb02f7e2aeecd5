package train

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cosmo"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/obsv"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// syntheticSet builds a learnable dataset of n samples with targets drawn
// uniformly in [0,1]³ and voxel contents deterministically derived from the
// targets.
func syntheticSet(n, dim int, seed int64) []*cosmo.Sample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*cosmo.Sample, n)
	for i := range out {
		target := [3]float32{rng.Float32(), rng.Float32(), rng.Float32()}
		out[i] = cosmo.SyntheticSample(dim, target, rng.Int63())
	}
	return out
}

func smallConfig(ranks, epochs int) Config {
	return Config{
		Ranks:  ranks,
		Epochs: epochs,
		Topology: nn.TopologyConfig{
			InputDim:     8,
			BaseChannels: 2,
			Seed:         1,
		},
		Optim: optim.Config{
			Schedule: optim.PolySchedule{Eta0: 2e-3, EtaMin: 1e-4, DecaySteps: 0},
		},
		WorkersPerRank: 1,
		Seed:           7,
	}
}

func TestRunValidation(t *testing.T) {
	cfg := smallConfig(0, 1)
	if _, err := Run(cfg, syntheticSet(4, 8, 1), nil); err == nil {
		t.Error("zero ranks accepted")
	}
	cfg = smallConfig(2, 0)
	if _, err := Run(cfg, syntheticSet(4, 8, 1), nil); err == nil {
		t.Error("zero epochs accepted")
	}
	cfg = smallConfig(8, 1)
	if _, err := Run(cfg, syntheticSet(4, 8, 1), nil); err == nil ||
		!strings.Contains(err.Error(), "at least one sample per rank") {
		t.Errorf("fewer samples than ranks: err = %v, want the §VII-B sample-per-rank error", err)
	}
	cfg = smallConfig(1, 1)
	if _, err := Run(cfg, nil, nil); err == nil ||
		!strings.Contains(err.Error(), "at least one sample per rank") {
		t.Errorf("empty training set: err = %v, want the §VII-B sample-per-rank error", err)
	}
	cfg = smallConfig(1, 1)
	cfg.Topology.InputDim = 16
	if _, err := Run(cfg, syntheticSet(4, 8, 1), nil); err == nil {
		t.Error("dim-8 training set accepted for InputDim 16")
	}
}

func TestSingleRankTrainingLearns(t *testing.T) {
	trainSet := syntheticSet(16, 8, 2)
	cfg := smallConfig(1, 12)
	cfg.Optim.Schedule = optim.PolySchedule{Eta0: 5e-3, EtaMin: 5e-4, DecaySteps: 16 * 12}
	res, err := Run(cfg, trainSet, trainSet[:4])
	if err != nil {
		t.Fatal(err)
	}
	first := res.Epochs[0].TrainLoss
	last := res.FinalTrainLoss()
	if !(last < first*0.8) {
		t.Errorf("train loss %g -> %g; no learning", first, last)
	}
	if res.FinalValLoss() <= 0 {
		t.Errorf("val loss = %g, want positive", res.FinalValLoss())
	}
}

func TestMultiRankMatchesEquivalentLargeBatch(t *testing.T) {
	// With k ranks and deterministic sharding, k-rank SSGD applies the
	// mean gradient over k samples per step — all replicas must remain
	// identical, and the run must complete with sensible stats.
	trainSet := syntheticSet(12, 8, 3)
	cfg := smallConfig(4, 2)
	res, err := Run(cfg, trainSet, trainSet[:4])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 2 {
		t.Fatalf("epochs = %d", len(res.Epochs))
	}
	for _, e := range res.Epochs {
		if e.Steps != 3 { // 12 samples / 4 ranks
			t.Errorf("steps per rank = %d, want 3", e.Steps)
		}
		if e.TrainLoss <= 0 || math.IsNaN(e.TrainLoss) {
			t.Errorf("bad train loss %v", e.TrainLoss)
		}
		if e.SamplesSec <= 0 {
			t.Errorf("bad throughput %v", e.SamplesSec)
		}
	}
	if res.GradBytes != 4*res.Net.GradSize() {
		t.Errorf("GradBytes = %d", res.GradBytes)
	}
}

func TestReplicasStayBitwiseSynchronized(t *testing.T) {
	// Train two ranks, then compare: rank 0's returned net must produce
	// the same predictions as a single-rank run is NOT expected, but the
	// k replicas of one run must agree. We verify by re-running the same
	// config twice (determinism) and by checking the returned replica's
	// predictions are finite and stable.
	trainSet := syntheticSet(8, 8, 4)
	runOnce := func() [3]float32 {
		cfg := smallConfig(2, 2)
		res, err := Run(cfg, trainSet, nil)
		if err != nil {
			t.Fatal(err)
		}
		return [3]float32(res.Net.Forward(sampleTensor(trainSet[0])).Data())
	}
	a, b := runOnce(), runOnce()
	if a != b {
		t.Errorf("training not deterministic: %v vs %v", a, b)
	}
}

func TestGlobalBatchGrowsWithRanks(t *testing.T) {
	// Convergence-per-epoch should not improve when ranks grow (fewer
	// optimizer steps per epoch at the same data volume) — the §V-D /
	// Fig. 5 effect. We assert the step-count bookkeeping behind it.
	trainSet := syntheticSet(16, 8, 5)
	for _, ranks := range []int{1, 2, 4} {
		cfg := smallConfig(ranks, 1)
		res, err := Run(cfg, trainSet, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Epochs[0].Steps; got != 16/ranks {
			t.Errorf("ranks=%d: steps=%d, want %d", ranks, got, 16/ranks)
		}
	}
}

func TestEvaluateAndRelativeErrors(t *testing.T) {
	priors := cosmo.DefaultPriors()
	// A perfect predictor gives zero relative error.
	perfect := []Estimate{
		{True: cosmo.Planck2015(), Pred: cosmo.Planck2015()},
	}
	re := RelativeErrors(perfect)
	for i, v := range re {
		if v != 0 {
			t.Errorf("perfect estimate rel err[%d] = %v", i, v)
		}
	}
	// A known offset gives a computable error: pred ΩM=0.30 vs true 0.33
	// → |0.30−0.33|/0.30 = 0.1.
	est := []Estimate{{
		True: cosmo.Params{OmegaM: 0.33, Sigma8: 0.8, NS: 0.96},
		Pred: cosmo.Params{OmegaM: 0.30, Sigma8: 0.8, NS: 0.96},
	}}
	re = RelativeErrors(est)
	if math.Abs(re[0]-0.1) > 1e-9 {
		t.Errorf("rel err = %v, want 0.1", re[0])
	}

	// Evaluate wires prediction and denormalization together.
	net, _ := nn.BuildCosmoFlow(nn.TopologyConfig{InputDim: 8, BaseChannels: 2, Seed: 1})
	testSet := syntheticSet(3, 8, 7)
	ests := Evaluate(net, testSet, priors)
	if len(ests) != 3 {
		t.Fatalf("estimates = %d", len(ests))
	}
	if !priors.Contains(ests[0].True) {
		t.Error("denormalized true params outside priors")
	}
	if out := FormatEstimates(ests); !strings.Contains(out, "predicted") {
		t.Error("estimate table malformed")
	}
}

func TestSustainedFlops(t *testing.T) {
	trainSet := syntheticSet(8, 8, 8)
	cfg := smallConfig(1, 2)
	res, err := Run(cfg, trainSet, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f := SustainedFlops(res); f <= 0 {
		t.Errorf("sustained flops = %v", f)
	}
}

func TestShardIteratorCoversAllSamplesAcrossRanks(t *testing.T) {
	samples := syntheticSet(12, 8, 9)
	ds := data.InMemory(samples, 3)
	seen := make(map[*cosmo.Sample]int)
	for rank := 0; rank < 4; rank++ {
		stream, err := ds.EpochStream(0, rank, 4)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 3; s++ {
			smp, err := stream.Next()
			if err != nil {
				t.Fatal(err)
			}
			seen[smp]++
		}
		stream.Close()
	}
	if len(seen) != 12 {
		t.Fatalf("shards covered %d distinct samples, want 12", len(seen))
	}
	for _, c := range seen {
		if c != 1 {
			t.Fatal("sample delivered more than once in an epoch")
		}
	}
}

func TestPredictShape(t *testing.T) {
	net, _ := nn.BuildCosmoFlow(nn.TopologyConfig{InputDim: 8, BaseChannels: 2, Seed: 1})
	s := cosmo.SyntheticSample(8, [3]float32{0.5, 0.5, 0.5}, 1)
	p := net.InferBatch([]*tensor.Tensor{sampleTensor(s)})[0].Data()
	if len(p) != 3 {
		t.Fatalf("prediction has %d outputs, want 3", len(p))
	}
	for i, v := range p {
		if math.IsNaN(float64(v)) {
			t.Errorf("prediction[%d] is NaN", i)
		}
	}
}

func TestCheckpointAndResume(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "model.ckpt")
	trainSet := syntheticSet(8, 8, 20)

	cfg := smallConfig(2, 2)
	cfg.CheckpointPath = ckpt
	res1, err := Run(cfg, trainSet, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}

	// A resumed run must start from the checkpointed weights: epoch-0
	// training loss of the resumed run should be near the first run's
	// final loss, not near its (higher) initial loss.
	cfg2 := smallConfig(2, 1)
	cfg2.ResumeFrom = ckpt
	res2, err := Run(cfg2, trainSet, nil)
	if err != nil {
		t.Fatal(err)
	}
	coldStart := res1.Epochs[0].TrainLoss
	resumed := res2.Epochs[0].TrainLoss
	final := res1.FinalTrainLoss()
	if math.Abs(resumed-final) > math.Abs(resumed-coldStart) {
		t.Errorf("resumed epoch-0 loss %g closer to cold start %g than to checkpointed %g",
			resumed, coldStart, final)
	}
}

func TestResumeFromMissingFileFails(t *testing.T) {
	cfg := smallConfig(1, 1)
	cfg.ResumeFrom = filepath.Join(t.TempDir(), "nope.ckpt")
	if _, err := Run(cfg, syntheticSet(4, 8, 21), nil); err == nil {
		t.Error("missing resume checkpoint accepted")
	}
}

func TestCheckpointEveryRespected(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "model.ckpt")
	cfg := smallConfig(1, 3)
	cfg.CheckpointPath = ckpt
	cfg.CheckpointEvery = 2
	if _, err := Run(cfg, syntheticSet(4, 8, 22), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatal("final checkpoint missing")
	}
}

func TestOverlapCommMatchesBlockingResult(t *testing.T) {
	// The §III-D overlap pipeline must compute the same training result as
	// the blocking flatten-allreduce path (same additions per bucket, only
	// scheduled earlier).
	trainSet := syntheticSet(8, 8, 30)
	run := func(overlap bool) [3]float32 {
		cfg := smallConfig(4, 2)
		cfg.OverlapComm = overlap
		res, err := Run(cfg, trainSet, nil)
		if err != nil {
			t.Fatal(err)
		}
		return [3]float32(res.Net.Forward(sampleTensor(trainSet[0])).Data())
	}
	a := run(false)
	b := run(true)
	for i := range a {
		if math.Abs(float64(a[i]-b[i])) > 1e-4 {
			t.Errorf("prediction[%d]: blocking %v vs overlap %v", i, a[i], b[i])
		}
	}
}

// With overlapped comm, the timeline that -profile reads still attributes
// time to the allreduce phase: the comm goroutine's collectives land on
// rank 0's ring.
func TestOverlapCommWithProfile(t *testing.T) {
	trainSet := syntheticSet(8, 8, 31)
	cfg := smallConfig(2, 1)
	cfg.OverlapComm = true
	cfg.Timeline = obsv.NewTimeline(0, 0)
	if _, err := Run(cfg, trainSet, nil); err != nil {
		t.Fatal(err)
	}
	if st := cfg.Timeline.Phases().Span(obsv.PhaseAllReduce.String()).Stat(); st.TotalMs <= 0 {
		t.Error("overlap mode did not record comm time")
	}
}
