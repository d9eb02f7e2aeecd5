package train

import (
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cosmo"
	"repro/internal/data"
	"repro/internal/tfrecord"
)

// shardedDataset writes a sharded TFRecord dataset with a manifest and
// returns a Loader over it, closed with the test.
func shardedDataset(t *testing.T, dim, n, perFile int, seed int64) string {
	t.Helper()
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(seed))
	set := make([]*cosmo.Sample, n)
	for i := range set {
		target := [3]float32{rng.Float32(), rng.Float32(), rng.Float32()}
		set[i] = cosmo.SyntheticSample(dim, target, rng.Int63())
	}
	if _, err := tfrecord.WriteDataset(dir, "train", set, perFile); err != nil {
		t.Fatal(err)
	}
	m, err := data.Scan(dir, "train")
	if err != nil {
		t.Fatal(err)
	}
	if err := data.WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	return dir
}

func streamLoader(t *testing.T, dir string, seed int64) *data.Loader {
	t.Helper()
	l, err := data.NewLoader(data.Config{Source: &data.DirSource{Dir: dir}, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	return l
}

// Two streamed runs at the same seed are bit-identical — the streaming
// path preserves the determinism contract of the in-memory one.
func TestRunStreamingBitIdentical(t *testing.T) {
	dir := shardedDataset(t, 8, 16, 4, 21)
	cfg := smallConfig(2, 3)
	cfg.Data = streamLoader(t, dir, cfg.Seed)
	a, err := Run(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Data = streamLoader(t, dir, cfg.Seed)
	b, err := Run(cfg2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for e := range a.Epochs {
		if a.Epochs[e].TrainLoss != b.Epochs[e].TrainLoss {
			t.Errorf("epoch %d: %.17g vs %.17g (streamed runs not bit-identical)",
				e, a.Epochs[e].TrainLoss, b.Epochs[e].TrainLoss)
		}
	}
	paramsEqual(t, a.Net, b.Net, "streamed replay")
	if a.Epochs[0].Steps != 8 { // 4 shards / 2 ranks * 4 samples
		t.Fatalf("steps per epoch = %d, want 8", a.Epochs[0].Steps)
	}
}

// A TCP-distributed world streaming shards matches the in-process
// streamed run bit-for-bit, rank count and seed equal.
func TestRunStreamingDistributedMatchesInProcess(t *testing.T) {
	dir := shardedDataset(t, 8, 16, 4, 22)
	cfg := smallConfig(2, 2)
	cfg.Data = streamLoader(t, dir, cfg.Seed)
	want, err := Run(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	dcfg := cfg
	dcfg.Data = streamLoader(t, dir, cfg.Seed)
	results, errs := runTCPWorld(t, dcfg, nil, nil)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for e := range want.Epochs {
		if got := results[0].Epochs[e].TrainLoss; got != want.Epochs[e].TrainLoss {
			t.Errorf("epoch %d: TCP %.17g vs in-process %.17g", e, got, want.Epochs[e].TrainLoss)
		}
	}
	paramsEqual(t, want.Net, results[0].Net, "streamed TCP vs in-process")
}

// Kill a streaming distributed world mid-run, relaunch it from the
// checkpoint, and the completed run matches an uninterrupted one
// bit-identically: the shard assignment is a pure function of
// (seed, epoch), so the resumed epochs stream exactly the samples the
// uninterrupted run would have.
func TestRunStreamingResumesFromCheckpoint(t *testing.T) {
	dir := shardedDataset(t, 8, 16, 4, 23)
	cfg := smallConfig(2, 4)
	cfg.Data = streamLoader(t, dir, cfg.Seed)

	want, err := Run(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "stream.ckpt")
	half := cfg
	half.Data = streamLoader(t, dir, cfg.Seed)
	half.CheckpointPath = ckpt
	half.AbortAfterEpoch = 2
	_, errs := runTCPWorld(t, half, nil, nil)
	if !errors.Is(errs[0], ErrAborted) {
		t.Fatalf("rank 0 error = %v, want ErrAborted", errs[0])
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint written before the abort: %v", err)
	}

	resumed := cfg
	resumed.Data = streamLoader(t, dir, cfg.Seed)
	resumed.CheckpointPath = ckpt
	resumed.ResumeFrom = ckpt
	results, errs := runTCPWorld(t, resumed, nil, nil)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("relaunched rank %d: %v", r, err)
		}
	}
	for e := 2; e < cfg.Epochs; e++ {
		got := results[0].Epochs[e]
		if got.Steps == 0 {
			t.Fatalf("resumed run skipped epoch %d", e)
		}
		if got.TrainLoss != want.Epochs[e].TrainLoss {
			t.Errorf("epoch %d resumed loss %.17g vs uninterrupted %.17g (not bit-identical)",
				e, got.TrainLoss, want.Epochs[e].TrainLoss)
		}
	}
	paramsEqual(t, want.Net, results[0].Net, "streamed resume")
}

func TestRunStreamingValidation(t *testing.T) {
	dir := shardedDataset(t, 8, 8, 4, 24)
	cfg := smallConfig(2, 1)
	cfg.Data = streamLoader(t, dir, cfg.Seed)

	both := cfg
	if _, err := Run(both, syntheticSet(4, 8, 1), nil); err == nil {
		t.Fatal("Config.Data plus an in-memory training set was accepted")
	}

	mismatch := cfg
	mismatch.Topology.InputDim = 16
	if _, err := Run(mismatch, nil, nil); err == nil {
		t.Fatal("dataset dim 8 accepted for InputDim 16")
	}

	starved := cfg
	starved.Ranks = 3 // 2 shards cannot feed 3 ranks
	if _, err := Run(starved, nil, nil); err == nil {
		t.Fatal("2-shard dataset accepted for a 3-rank world")
	}
}

// fakeDataset wraps an in-memory Dataset, counting the streams it opens
// and closes, and makes every stream fail with err after failAfter samples
// (failAfter 0: never).
type fakeDataset struct {
	data.Dataset
	failAfter     int
	err           error
	opens, closes atomic.Int32
}

func (d *fakeDataset) EpochStream(epoch, rank, ranks int) (data.SampleStream, error) {
	s, err := d.Dataset.EpochStream(epoch, rank, ranks)
	if err != nil {
		return nil, err
	}
	d.opens.Add(1)
	return &fakeStream{SampleStream: s, d: d}, nil
}

type fakeStream struct {
	data.SampleStream
	d *fakeDataset
	n int
}

func (s *fakeStream) Next() (*cosmo.Sample, error) {
	if s.d.failAfter > 0 && s.n == s.d.failAfter {
		return nil, s.d.err
	}
	s.n++
	return s.SampleStream.Next()
}

func (s *fakeStream) Close() error {
	s.d.closes.Add(1)
	return s.SampleStream.Close()
}

// runFake trains 2 ranks × 2 epochs (4 steps each) on a fakeDataset and
// checks that every stream Run opened was closed by the time it returned.
func runFake(t *testing.T, failAfter int, failErr error) (*fakeDataset, error) {
	t.Helper()
	cfg := smallConfig(2, 2)
	fake := &fakeDataset{Dataset: data.InMemory(syntheticSet(8, 8, 31), cfg.Seed), failAfter: failAfter, err: failErr}
	cfg.Data = fake
	_, err := Run(cfg, nil, nil)
	if opens, closes := fake.opens.Load(), fake.closes.Load(); opens != closes {
		t.Errorf("opened %d streams, closed %d", opens, closes)
	}
	return fake, err
}

// A stream that runs dry before StepsPerEpoch is a dataset that changed
// under its manifest: Run names where it happened.
func TestRunStreamExhaustedMidEpoch(t *testing.T) {
	_, err := runFake(t, 3, io.EOF)
	if err == nil {
		t.Fatal("a stream one sample short of the epoch trained without error")
	}
	for _, want := range []string{"rank 0", "epoch 0", "step 3", "exhausted mid-epoch"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not contain %q", err, want)
		}
	}
}

func TestRunStreamNextErrorWrapped(t *testing.T) {
	injected := errors.New("injected read failure")
	if _, err := runFake(t, 1, injected); !errors.Is(err, injected) {
		t.Fatalf("err = %v, want it to wrap %v", err, injected)
	}
}

// Every epoch's stream is closed: a Loader stream left open leaks its
// prefetch goroutine.
func TestRunClosesEveryEpochStream(t *testing.T) {
	fake, err := runFake(t, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if opens := fake.opens.Load(); opens != 2*2 {
		t.Fatalf("opened %d streams, want ranks × epochs = 4", opens)
	}
}
