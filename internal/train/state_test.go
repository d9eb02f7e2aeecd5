package train

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/nn"
	"repro/internal/optim"
)

func smallNet(t *testing.T, seed int64) *nn.Network {
	t.Helper()
	net, err := nn.BuildCosmoFlow(nn.TopologyConfig{InputDim: 8, BaseChannels: 2, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// fillGrads writes a deterministic pseudo-gradient for step k into every
// parameter, so two optimizer histories can be replayed identically.
func fillGrads(net *nn.Network, k int) {
	rng := rand.New(rand.NewSource(int64(k)*7919 + 1))
	for _, p := range net.Params() {
		g := p.Grad.Data()
		for i := range g {
			g[i] = float32(rng.NormFloat64()) * 1e-2
		}
	}
}

func paramsEqual(t *testing.T, a, b *nn.Network, context string) {
	t.Helper()
	ap, bp := a.Params(), b.Params()
	for i := range ap {
		av, bv := ap[i].Value.Data(), bp[i].Value.Data()
		for j := range av {
			if av[j] != bv[j] {
				t.Fatalf("%s: param %s[%d] = %v vs %v (not bit-identical)",
					context, ap[i].Name, j, av[j], bv[j])
			}
		}
	}
}

// runSteps replays pseudo-gradient steps [from, to) through opt.
func runSteps(net *nn.Network, opt *optim.AdamLARC, from, to int) {
	for k := from; k < to; k++ {
		fillGrads(net, k)
		opt.Step()
	}
}

// TestResumeBitIdenticalAdamLARC: both Adam moments and the step counter
// round-trip through the checkpoint, so a resumed run matches an
// uninterrupted one bit for bit (a params-only resume would cold-start the
// moments and diverge).
func TestResumeBitIdenticalAdamLARC(t *testing.T) {
	cfg := optim.Config{Schedule: optim.PolySchedule{Eta0: 2e-3, EtaMin: 1e-4, DecaySteps: 20}}

	straight := smallNet(t, 4)
	optA := optim.New(straight.Params(), cfg)
	runSteps(straight, optA, 0, 8)

	interrupted := smallNet(t, 4)
	optB := optim.New(interrupted.Params(), cfg)
	runSteps(interrupted, optB, 0, 3)
	path := filepath.Join(t.TempDir(), "adam.ckpt")
	if err := SaveTrainState(path, interrupted, optB, 2); err != nil {
		t.Fatal(err)
	}

	resumed := smallNet(t, 4)
	optC := optim.New(resumed.Params(), cfg)
	st, err := LoadTrainState(path, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Apply(optC); err != nil {
		t.Fatal(err)
	}
	if optC.StepCount() != 3 {
		t.Fatalf("restored step count %d, want 3", optC.StepCount())
	}
	runSteps(resumed, optC, 3, 8)
	paramsEqual(t, straight, resumed, "Adam resume")

	// Control: the cold-moment resume really would diverge, proving the
	// state section is load-bearing.
	cold := smallNet(t, 99)
	optD := optim.New(cold.Params(), cfg)
	if err := cold.LoadCheckpointFile(path); err != nil { // params only
		t.Fatal(err)
	}
	optD.SetStepCount(3)
	runSteps(cold, optD, 3, 8)
	sp, cp := straight.Params(), cold.Params()
	diverged := false
outer:
	for i := range sp {
		a, b := sp[i].Value.Data(), cp[i].Value.Data()
		for j := range a {
			if a[j] != b[j] {
				diverged = true
				break outer
			}
		}
	}
	if !diverged {
		t.Error("cold-moment resume matched the uninterrupted run; the test is vacuous")
	}
}

// TestLoadTrainStateParamsOnly: a plain nn checkpoint (the pre-existing
// format) still resumes — parameters load, optimizer section is nil.
func TestLoadTrainStateParamsOnly(t *testing.T) {
	net := smallNet(t, 5)
	path := filepath.Join(t.TempDir(), "plain.ckpt")
	if err := net.SaveCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	other := smallNet(t, 6)
	st, err := LoadTrainState(path, other)
	if err != nil {
		t.Fatal(err)
	}
	if st != nil {
		t.Fatalf("plain checkpoint decoded a state section: %+v", st)
	}
	paramsEqual(t, net, other, "params-only load")
}

// TestTrainStateFileIsAlsoAModelCheckpoint: the serving daemon's loader
// (nn.LoadCheckpointFile) must keep reading training-state files.
func TestTrainStateFileIsAlsoAModelCheckpoint(t *testing.T) {
	net := smallNet(t, 7)
	opt := optim.New(net.Params(), optim.Config{Schedule: optim.PolySchedule{Eta0: 1e-3, EtaMin: 1e-4, DecaySteps: 10}})
	runSteps(net, opt, 0, 2)
	path := filepath.Join(t.TempDir(), "state.ckpt")
	if err := SaveTrainState(path, net, opt, 1); err != nil {
		t.Fatal(err)
	}
	serving := smallNet(t, 8)
	if err := serving.LoadCheckpointFile(path); err != nil {
		t.Fatalf("nn loader rejected a training-state checkpoint: %v", err)
	}
	paramsEqual(t, net, serving, "serving load")
}

// TestTrainStateDetectsCorruption: a flipped byte in the optimizer section
// fails the CRC instead of silently resuming garbage Adam moments.
func TestTrainStateDetectsCorruption(t *testing.T) {
	net := smallNet(t, 9)
	opt := optim.New(net.Params(), optim.Config{Schedule: optim.PolySchedule{Eta0: 1e-3, EtaMin: 1e-4, DecaySteps: 10}})
	runSteps(net, opt, 0, 1)
	path := filepath.Join(t.TempDir(), "corrupt.ckpt")
	if err := SaveTrainState(path, net, opt, 1); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[net.CheckpointSize()+20] ^= 0x40 // inside the optimizer section
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTrainState(path, smallNet(t, 9)); err == nil {
		t.Fatal("corrupted state section loaded without error")
	}
}
