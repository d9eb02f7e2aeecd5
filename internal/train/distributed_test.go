package train

import (
	"errors"
	"math"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/cosmo"
	"repro/internal/dist"
	"repro/internal/obsv"
)

// runTCPWorld trains one rank per goroutine, each with its own dist.Join
// over real localhost TCP — the same wire path separate processes take.
// Rank 0 runs cfg; the others run it without the fault injection and, when
// cfg traces, with a ring of their own, as Run does. Results and errors are
// indexed by rank.
func runTCPWorld(t *testing.T, cfg Config, trainSet, valSet []*cosmo.Sample) ([]*Result, []error) {
	t.Helper()
	cfgs := make([]Config, cfg.Ranks)
	for r := range cfgs {
		cfgs[r] = cfg
		if r != 0 {
			cfgs[r].AbortAfterEpoch = 0 // fault injection is rank 0's job
			if cfg.Timeline != nil {
				cfgs[r].Timeline = obsv.NewTimeline(r, cfg.Timeline.Cap())
			}
		}
	}
	return runTCPRanks(t, cfgs, trainSet, valSet)
}

// runTCPRanks is runTCPWorld with every rank's Config given explicitly, as
// when each process of a world is started with its own flags.
func runTCPRanks(t *testing.T, cfgs []Config, trainSet, valSet []*cosmo.Sample) ([]*Result, []error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n := len(cfgs)
	results := make([]*Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		dcfg := dist.Config{
			Size:        n,
			Rank:        i, // explicit ranks, as the launcher assigns them
			Rendezvous:  ln.Addr().String(),
			Algorithm:   cfgs[i].Algorithm,
			Helpers:     cfgs[i].Helpers,
			JoinTimeout: 20 * time.Second,
			PeerTimeout: 2 * time.Second,
		}
		if i == 0 {
			dcfg.RendezvousListener = ln
		}
		wg.Add(1)
		go func(rank int, dcfg dist.Config) {
			defer wg.Done()
			w, err := dist.Join(dcfg)
			if err != nil {
				errs[rank] = err
				return
			}
			defer w.Close()
			results[rank], errs[rank] = RunDistributed(cfgs[rank], w.Comm(), trainSet, valSet)
		}(i, dcfg)
	}
	wg.Wait()
	return results, errs
}

// TestRunDistributedBitIdenticalToInProcess is the tentpole acceptance: a
// 4-process TCP world produces bit-identical epoch losses to the
// in-process 4-rank world at the same seed.
func TestRunDistributedBitIdenticalToInProcess(t *testing.T) {
	trainSet := syntheticSet(16, 8, 3)
	valSet := syntheticSet(4, 8, 4)
	cfg := smallConfig(4, 2)

	want, err := Run(cfg, trainSet, valSet)
	if err != nil {
		t.Fatal(err)
	}
	results, errs := runTCPWorld(t, cfg, trainSet, valSet)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for e := range want.Epochs {
		got := results[0].Epochs[e]
		if got.TrainLoss != want.Epochs[e].TrainLoss {
			t.Errorf("epoch %d train loss %.17g over TCP vs %.17g in-process (not bit-identical)",
				e, got.TrainLoss, want.Epochs[e].TrainLoss)
		}
		if got.ValLoss != want.Epochs[e].ValLoss {
			t.Errorf("epoch %d val loss %.17g over TCP vs %.17g in-process",
				e, got.ValLoss, want.Epochs[e].ValLoss)
		}
	}

	// The trained replicas themselves must agree bit-for-bit, on every
	// rank (replicas stay synchronized without a parameter server).
	for r := 1; r < cfg.Ranks; r++ {
		paramsEqual(t, results[0].Net, results[r].Net, "replica sync")
	}
	paramsEqual(t, want.Net, results[0].Net, "TCP vs in-process net")
}

// TestRunDistributedResumesFromCheckpoint is the fault-tolerance
// acceptance: kill the world mid-run (rank 0 aborts after its epoch-2
// checkpoint; survivors detect the death), relaunch it resuming from the
// checkpoint, and the completed run matches an uninterrupted one
// bit-identically.
func TestRunDistributedResumesFromCheckpoint(t *testing.T) {
	trainSet := syntheticSet(16, 8, 5)
	cfg := smallConfig(4, 4)

	want, err := Run(cfg, trainSet, nil)
	if err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "dist.ckpt")
	half := cfg
	half.CheckpointPath = ckpt
	half.AbortAfterEpoch = 2
	_, errs := runTCPWorld(t, half, trainSet, nil)
	if !errors.Is(errs[0], ErrAborted) {
		t.Fatalf("rank 0 error = %v, want ErrAborted", errs[0])
	}
	for r := 1; r < cfg.Ranks; r++ {
		if errs[r] == nil {
			t.Fatalf("rank %d survived rank 0's death without error", r)
		}
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint written before the abort: %v", err)
	}

	resumed := cfg
	resumed.CheckpointPath = ckpt
	resumed.ResumeFrom = ckpt
	results, errs := runTCPWorld(t, resumed, trainSet, nil)
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
	for e := 0; e < 2; e++ {
		if results[0].Epochs[e].Steps != 0 {
			t.Errorf("resumed run re-trained completed epoch %d", e)
		}
	}
	paramsEqual(t, want.Net, results[0].Net, "resumed final net")
}

// TestRunInProcessResumeBitIdentical covers the same resume contract
// without TCP: an interrupted in-process run continues exactly where the
// training-state checkpoint left it.
func TestRunInProcessResumeBitIdentical(t *testing.T) {
	trainSet := syntheticSet(8, 8, 6)
	cfg := smallConfig(2, 4)
	// Pin the decay horizon: prepareRun derives it from Epochs, and the
	// interrupted first leg runs with a smaller Epochs.
	cfg.Optim.Schedule.DecaySteps = 16

	want, err := Run(cfg, trainSet, nil)
	if err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "inproc.ckpt")
	first := cfg
	first.Epochs = 2
	first.CheckpointPath = ckpt
	if _, err := Run(first, trainSet, nil); err != nil {
		t.Fatal(err)
	}
	second := cfg
	second.ResumeFrom = ckpt
	res, err := Run(second, trainSet, nil)
	if err != nil {
		t.Fatal(err)
	}
	for e := 2; e < cfg.Epochs; e++ {
		if res.Epochs[e].TrainLoss != want.Epochs[e].TrainLoss {
			t.Errorf("epoch %d resumed loss %.17g vs uninterrupted %.17g",
				e, res.Epochs[e].TrainLoss, want.Epochs[e].TrainLoss)
		}
	}
	paramsEqual(t, want.Net, res.Net, "in-process resume")
}

func TestRunDistributedValidatesWorldSize(t *testing.T) {
	trainSet := syntheticSet(8, 8, 7)
	cfg := smallConfig(3, 1) // does not match the 1-rank world below
	w, err := dist.Join(dist.Config{Size: 1, Rank: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := RunDistributed(cfg, w.Comm(), trainSet, nil); err == nil {
		t.Fatal("world-size mismatch accepted")
	}
}

// TestRunDistributedSingleRank: a 1-process world trains without any
// rendezvous, matching the single-rank in-process run.
func TestRunDistributedSingleRank(t *testing.T) {
	trainSet := syntheticSet(6, 8, 8)
	cfg := smallConfig(1, 1)
	want, err := Run(cfg, trainSet, nil)
	if err != nil {
		t.Fatal(err)
	}
	w, err := dist.Join(dist.Config{Size: 1, Rank: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	got, err := RunDistributed(cfg, w.Comm(), trainSet, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.FinalTrainLoss() != want.FinalTrainLoss() {
		t.Errorf("single-rank TCP loss %v vs in-process %v", got.FinalTrainLoss(), want.FinalTrainLoss())
	}
	if math.IsNaN(got.FinalTrainLoss()) {
		t.Error("loss is NaN")
	}
}

func TestRunRejectsAbortInProcess(t *testing.T) {
	cfg := smallConfig(2, 1)
	cfg.AbortAfterEpoch = 1
	if _, err := Run(cfg, syntheticSet(4, 8, 9), nil); err == nil {
		t.Fatal("in-process Run accepted AbortAfterEpoch (would deadlock)")
	}
}
