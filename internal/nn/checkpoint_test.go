package nn

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/tensor"
)

func TestCheckpointRoundTrip(t *testing.T) {
	a, err := BuildCosmoFlow(TopologyConfig{InputDim: 8, BaseChannels: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for _, p := range a.Params() {
		p.Value.RandNormal(rng, 0, 1)
	}

	var buf bytes.Buffer
	if err := a.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}

	b, _ := BuildCosmoFlow(TopologyConfig{InputDim: 8, BaseChannels: 2, Seed: 99})
	if err := b.LoadCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, 8, 8, 8)
	x.RandNormal(rng, 0, 1)
	ya := a.Forward(x)
	yb := b.Forward(x)
	if d := tensor.MaxAbsDiff(ya.Data(), yb.Data()); d > 1e-7 {
		t.Errorf("restored network differs by %g", d)
	}
}

// TestCheckpointSizeMatchesEncoding pins CheckpointSize to the actual
// encoder output: callers (train's optimizer-state section) locate
// trailing sections by this arithmetic, so any format change must move
// both or this fails.
func TestCheckpointSizeMatchesEncoding(t *testing.T) {
	n, err := BuildCosmoFlow(TopologyConfig{InputDim: 8, BaseChannels: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != n.CheckpointSize() {
		t.Fatalf("SaveCheckpoint wrote %d bytes, CheckpointSize reports %d", buf.Len(), n.CheckpointSize())
	}
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.ckpt")
	a, _ := BuildCosmoFlow(TopologyConfig{InputDim: 8, BaseChannels: 2, Seed: 3})
	if err := a.SaveCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	b, _ := BuildCosmoFlow(TopologyConfig{InputDim: 8, BaseChannels: 2, Seed: 4})
	if err := b.LoadCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	bufA := make([]float32, a.ParamCount())
	bufB := make([]float32, b.ParamCount())
	a.FlattenParams(bufA)
	b.FlattenParams(bufB)
	if d := tensor.MaxAbsDiff(bufA, bufB); d != 0 {
		t.Errorf("file round trip diff %g", d)
	}
}

func TestCheckpointDetectsCorruption(t *testing.T) {
	a, _ := BuildCosmoFlow(TopologyConfig{InputDim: 8, BaseChannels: 2, Seed: 5})
	var buf bytes.Buffer
	if err := a.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)/2] ^= 0xFF
	b, _ := BuildCosmoFlow(TopologyConfig{InputDim: 8, BaseChannels: 2, Seed: 6})
	if err := b.LoadCheckpoint(bytes.NewReader(raw)); err == nil {
		t.Error("corrupt checkpoint accepted")
	}
}

func TestCheckpointRejectsTopologyMismatch(t *testing.T) {
	a, _ := BuildCosmoFlow(TopologyConfig{InputDim: 8, BaseChannels: 2, Seed: 7})
	var buf bytes.Buffer
	if err := a.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	b, _ := BuildCosmoFlow(TopologyConfig{InputDim: 8, BaseChannels: 4, Seed: 8})
	if err := b.LoadCheckpoint(&buf); err == nil {
		t.Error("mismatched topology accepted")
	}
}

func TestCheckpointRejectsGarbage(t *testing.T) {
	a, _ := BuildCosmoFlow(TopologyConfig{InputDim: 8, BaseChannels: 2, Seed: 9})
	if err := a.LoadCheckpoint(bytes.NewReader([]byte("not a checkpoint"))); err == nil {
		t.Error("garbage accepted")
	}
}
