package client_test

import (
	"context"
	"errors"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cosmo"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/serve/api"
	"repro/internal/serve/client"
	"repro/internal/tensor"
)

const (
	testDim  = 8
	testBase = 2
)

// startServer stands up a real serve.Server with one checkpointed model
// and returns the base URL plus a reference network for bit-identity.
func startServer(t *testing.T, seed int64) (string, *nn.Network, string) {
	t.Helper()
	topo := nn.TopologyConfig{InputDim: testDim, BaseChannels: testBase, Seed: seed}
	net, err := nn.BuildCosmoFlow(topo)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "model.ckpt")
	if err := net.SaveCheckpointFile(ckpt); err != nil {
		t.Fatal(err)
	}
	ref, err := nn.BuildCosmoFlow(topo)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.LoadCheckpointFile(ckpt); err != nil {
		t.Fatal(err)
	}

	reg := serve.NewRegistry()
	if _, err := reg.Load(serve.ModelConfig{
		Topology:       topo,
		CheckpointPath: ckpt,
		Replicas:       2,
		MaxBatch:       4,
		MaxDelay:       time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(serve.NewServer(reg, "").Handler())
	t.Cleanup(func() { srv.Close(); reg.Close() })
	return srv.URL, ref, ckpt
}

func sample(seed int64) *cosmo.Sample {
	rng := rand.New(rand.NewSource(seed))
	target := [3]float32{rng.Float32(), rng.Float32(), rng.Float32()}
	return cosmo.SyntheticSample(testDim, target, rng.Int63())
}

// TestPredictBothEncodings checks the typed client returns identical,
// reference-matching predictions over JSON and binary.
func TestPredictBothEncodings(t *testing.T) {
	base, ref, _ := startServer(t, 81)
	s := sample(82)
	want := [3]float32(ref.Forward(tensor.FromData(s.Voxels, ref.InputShape()...)).Data())
	dims := []int{1, testDim, testDim, testDim}
	ctx := context.Background()

	var answers []*api.PredictResponse
	for _, enc := range []client.Encoding{client.JSON, client.Binary} {
		c := client.New(base, client.WithEncoding(enc))
		pr, err := c.Predict(ctx, "", dims, s.Voxels)
		if err != nil {
			t.Fatalf("%v predict: %v", enc, err)
		}
		if pr.Normalized != want {
			t.Errorf("%v: normalized %v != reference %v", enc, pr.Normalized, want)
		}
		if pr.Model != api.DefaultModel || pr.BatchSize < 1 {
			t.Errorf("%v: response %+v", enc, pr)
		}
		answers = append(answers, pr)
	}
	if answers[0].Params != answers[1].Params {
		t.Errorf("params differ across encodings: %+v vs %+v", answers[0].Params, answers[1].Params)
	}

	// Pre-encoded path (the loadgen hot loop).
	body, ct, err := client.EncodePredictRequest(client.Binary, dims, s.Voxels)
	if err != nil {
		t.Fatal(err)
	}
	c := client.New(base)
	pr, err := c.PredictEncoded(ctx, "", body, ct)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Normalized != want {
		t.Errorf("pre-encoded: normalized %v != %v", pr.Normalized, want)
	}
}

// TestLifecycleMethods drives list/get/load/unload/health/stats through
// the typed client.
func TestLifecycleMethods(t *testing.T) {
	base, _, ckpt := startServer(t, 83)
	ctx := context.Background()
	c := client.New(base)

	models, err := c.ListModels(ctx)
	if err != nil || len(models) != 1 || models[0].Name != api.DefaultModel {
		t.Fatalf("ListModels = %+v, %v", models, err)
	}
	ms, err := c.GetModel(ctx, api.DefaultModel)
	if err != nil || ms.State != api.StateReady {
		t.Fatalf("GetModel = %+v, %v", ms, err)
	}

	loaded, err := c.LoadModel(ctx, "second", api.LoadModelRequest{
		CheckpointPath: ckpt, InputDim: testDim, BaseChannels: testBase,
	})
	if err != nil || loaded.State != api.StateReady {
		t.Fatalf("LoadModel = %+v, %v", loaded, err)
	}
	s := sample(84)
	if _, err := c.Predict(ctx, "second", []int{1, testDim, testDim, testDim}, s.Voxels); err != nil {
		t.Fatalf("predict on loaded model: %v", err)
	}

	hr, err := c.Health(ctx)
	if err != nil || hr.Status != "ok" || len(hr.Models) != 2 {
		t.Fatalf("Health = %+v, %v", hr, err)
	}
	sr, err := c.Stats(ctx)
	if err != nil || len(sr.Models) != 2 {
		t.Fatalf("Stats = %+v, %v", sr, err)
	}

	if err := c.UnloadModel(ctx, "second"); err != nil {
		t.Fatalf("UnloadModel: %v", err)
	}
	var apiErr *client.APIError
	if err := c.UnloadModel(ctx, "second"); !errors.As(err, &apiErr) || apiErr.StatusCode != 404 {
		t.Fatalf("second unload err = %v, want 404 APIError", err)
	}
	if apiErr.Code != api.CodeNotFound || apiErr.RequestID == "" {
		t.Fatalf("APIError = %+v", apiErr)
	}
}

// TestAPIErrorDecoding checks typed errors surface the envelope fields.
func TestAPIErrorDecoding(t *testing.T) {
	base, _, _ := startServer(t, 85)
	ctx := context.Background()
	c := client.New(base, client.WithEncoding(client.JSON))

	_, err := c.Predict(ctx, "ghost", nil, []float32{1})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 404 || apiErr.Code != api.CodeNotFound {
		t.Fatalf("predict on unknown model: %v", err)
	}

	// Wrong voxel count → 400 INVALID_ARGUMENT.
	_, err = c.Predict(ctx, "", nil, []float32{1, 2, 3})
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 400 || apiErr.Code != api.CodeInvalidArgument {
		t.Fatalf("short volume: %v", err)
	}

	// Binary encoding requires dims that match the payload, client-side.
	cb := client.New(base)
	if _, err := cb.Predict(ctx, "", []int{2, 2}, []float32{1, 2, 3}); err == nil {
		t.Fatal("mismatched dims accepted client-side")
	}
}

// TestParseEncoding covers the -wire flag mapping.
func TestParseEncoding(t *testing.T) {
	if enc, err := client.ParseEncoding("JSON"); err != nil || enc != client.JSON {
		t.Fatalf("ParseEncoding(JSON) = %v, %v", enc, err)
	}
	if enc, err := client.ParseEncoding("binary"); err != nil || enc != client.Binary {
		t.Fatalf("ParseEncoding(binary) = %v, %v", enc, err)
	}
	if _, err := client.ParseEncoding("protobuf"); err == nil {
		t.Fatal("ParseEncoding(protobuf) succeeded")
	}
}
