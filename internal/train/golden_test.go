package train

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/tensor"
)

// goldenRun is the bit-level fingerprint of one small training run: the
// loss bits the trainer reports, an FNV-64a of the trained parameters, and
// an FNV-64a of a B=3 InferBatch answer from the trained network.
type goldenRun struct {
	FinalLossBits   string `json:"final_loss_bits"`
	ValLossBits     string `json:"val_loss_bits"`
	ParamsFNV64     string `json:"params_fnv64"`
	InferBatchFNV64 string `json:"inferbatch_fnv64"`
}

// fnv64Floats hashes float32 values by their little-endian bits.
func fnv64Floats(vals ...[]float32) string {
	h := fnv.New64a()
	var b [4]byte
	for _, vs := range vals {
		for _, v := range vs {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestGoldenBits pins the exact bits a fixed-seed dim-8 base-2 run of two
// epochs produces with one rank and with two in-process ranks, plus a
// one-rank, one-epoch dim-8 base-16 run ("blocked") whose conv2, conv3 and
// conv6 take the Algorithm-1 blocked kernel in Forward, Backward and
// InferBatch. Every other bit-identity test compares two paths of the same
// tree; this one compares against testdata/golden.json, so a change to any
// kernel, reduction order or optimizer step that moves a single bit fails
// here. An intended change replaces the file with the JSON this test
// prints, and the diff to that one file is the record of what moved. The
// bits are amd64's: the Go compiler may fuse multiply-adds on other
// architectures, which rounds differently.
func TestGoldenBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bits are recorded on amd64, not %s", runtime.GOARCH)
	}
	trainSet := syntheticSet(8, 8, 11)
	valSet := syntheticSet(4, 8, 12)
	blocked := smallConfig(1, 1)
	blocked.Topology.BaseChannels = 16
	runs := map[string]Config{
		"1rank":   smallConfig(1, 2),
		"2rank":   smallConfig(2, 2),
		"blocked": blocked,
	}
	got := map[string]goldenRun{}
	for name, cfg := range runs {
		res, err := Run(cfg, trainSet, valSet)
		if err != nil {
			t.Fatal(err)
		}
		params := make([]float32, res.Net.ParamCount())
		res.Net.FlattenParams(params)
		xs := make([]*tensor.Tensor, 3)
		for i := range xs {
			s := valSet[i]
			xs[i] = tensor.FromData(s.Voxels, s.NumChannels(), s.Dim, s.Dim, s.Dim)
		}
		var outs [][]float32
		for _, y := range res.Net.InferBatch(xs) {
			outs = append(outs, y.Data())
		}
		got[name] = goldenRun{
			FinalLossBits:   fmt.Sprintf("%016x", math.Float64bits(res.FinalTrainLoss())),
			ValLossBits:     fmt.Sprintf("%016x", math.Float64bits(res.FinalValLoss())),
			ParamsFNV64:     fnv64Floats(params),
			InferBatchFNV64: fnv64Floats(outs...),
		}
	}

	gotJSON, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("testdata/golden.json")
	if err != nil {
		t.Fatalf("%v; this run produced:\n%s", err, gotJSON)
	}
	var want map[string]goldenRun
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("testdata/golden.json: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("training bits differ from testdata/golden.json; this run produced:\n%s", gotJSON)
	}
}
