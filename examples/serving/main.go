// Serving walkthrough: train a small CosmoFlow model on synthetic
// universes, check the resulting checkpoint into an inference server with
// a replica pool and dynamic micro-batching, fire concurrent traffic at
// the versioned v1 API through the typed client — over both the JSON and
// binary-tensor wire encodings — hot-load and unload a second model at
// runtime, and drain gracefully. The full lifecycle behind
// cosmoflow-serve, cosmoflow-loadgen, and cosmoflow-infer -addr, in one
// self-contained program.
//
// Run with:
//
//	go run ./examples/serving
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cosmo"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/serve/api"
	"repro/internal/serve/client"
	"repro/internal/train"
)

func main() {
	log.SetFlags(0)

	fmt.Println("CosmoFlow serving — train, load, batch, predict, swap, drain")
	start := time.Now()
	ctx := context.Background()

	// 1. Train a small model and save its checkpoint, as
	//    cosmoflow-train -ckpt would.
	sim := cosmo.SimConfig{NGrid: 32, BoxSize: 64, Priors: cosmo.DefaultPriors()}
	ds, err := cosmo.BuildDataset(sim, 8, 1, 1, 42)
	if err != nil {
		log.Fatal(err)
	}
	dim := ds.Config.SubVolumeDim()
	res, err := train.Run(train.Config{
		Ranks: 2, Epochs: 3,
		Topology: nn.TopologyConfig{InputDim: dim, BaseChannels: 2, Seed: 8},
		Seed:     7,
	}, ds.Train, ds.Val)
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "cosmoflow-serving")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ckpt := filepath.Join(dir, "model.ckpt")
	if err := res.Net.SaveCheckpointFile(ckpt); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained %d epochs on %d samples, checkpoint saved (%.1fs)\n",
		len(res.Epochs), len(ds.Train), time.Since(start).Seconds())

	// 2. Load the checkpoint into a model registry: 4 weight-sharing
	//    replicas behind a micro-batcher (≤8 requests or 2ms per batch).
	reg := serve.NewRegistry()
	model, err := reg.Load(serve.ModelConfig{
		Topology: nn.TopologyConfig{
			InputDim:     dim,
			BaseChannels: 2,
			Seed:         1, // any fixed seed: the checkpoint overrides initialization
		},
		CheckpointPath: ckpt,
		Priors:         ds.Config.Priors,
		Replicas:       4,
		MaxBatch:       8,
		MaxDelay:       2 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 3. Serve the v1 API over HTTP on a random local port.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := serve.NewServer(reg, ln.Addr().String())
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Printf("serving %q on %s (POST /v1/models/%s:predict)\n", model.Name(), base, model.Name())

	// 4. Concurrent clients through the typed v1 client: every test
	//    sub-volume over the binary tensor wire (4 bytes per voxel on the
	//    wire instead of JSON decimals).
	cl := client.New(base, client.WithEncoding(client.Binary))
	dims := []int{1, dim, dim, dim}
	var wg sync.WaitGroup
	ests := make([]train.Estimate, len(ds.Test))
	for i, s := range ds.Test {
		wg.Add(1)
		go func(i int, voxels []float32, truth [3]float32) {
			defer wg.Done()
			resp, err := cl.Predict(ctx, "", dims, voxels)
			if err != nil {
				log.Fatalf("predict %d: %v", i, err)
			}
			ests[i] = train.Estimate{
				True: ds.Config.Priors.Denormalize(truth),
				Pred: ds.Config.Priors.Denormalize(resp.Normalized),
			}
		}(i, s.Voxels, s.Target)
	}
	wg.Wait()

	fmt.Println("\nserved parameter estimates (held-out simulation, binary wire):")
	fmt.Print(train.FormatEstimates(ests[:4]))
	re := train.RelativeErrors(ests)
	fmt.Printf("average relative errors: ΩM %.3f  σ8 %.3f  ns %.3f\n", re[0], re[1], re[2])

	// 5. The JSON encoding answers bit-identically — same bytes on the
	//    wire is a format choice, not a numerics choice.
	jsonCl := client.New(base, client.WithEncoding(client.JSON))
	binResp, err := cl.Predict(ctx, "", dims, ds.Test[0].Voxels)
	if err != nil {
		log.Fatal(err)
	}
	jsonResp, err := jsonCl.Predict(ctx, "", dims, ds.Test[0].Voxels)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwire check: binary %v == json %v: %v\n",
		binResp.Normalized, jsonResp.Normalized, binResp.Normalized == jsonResp.Normalized)

	// 6. Runtime lifecycle: hot-load a second model from the same
	//    checkpoint under a new name, list both, then drain and unload it
	//    — all over the API, no restart.
	if _, err := cl.LoadModel(ctx, "canary", api.LoadModelRequest{
		CheckpointPath: ckpt, InputDim: dim, BaseChannels: 2, Replicas: 1,
	}); err != nil {
		log.Fatal(err)
	}
	models, err := cl.ListModels(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nmodels after hot-load:")
	for _, m := range models {
		fmt.Printf("  %-8s %-6s replicas=%d requests=%d\n",
			m.Name, m.State, m.Replicas, m.Stats.Requests)
	}
	if _, err := cl.Predict(ctx, "canary", dims, ds.Test[0].Voxels); err != nil {
		log.Fatal(err)
	}
	if err := cl.UnloadModel(ctx, "canary"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("canary model served one prediction and unloaded")

	// 7. Observability: the /stats endpoint the daemon exposes.
	st := model.Stats()
	fmt.Printf("\nstats: %d requests in %d micro-batches (avg %.2f), p50 %.2fms  p99 %.2fms\n",
		st.Requests, st.Batches, st.AvgBatch, st.P50Ms, st.P99Ms)

	// 8. Graceful shutdown: listener closes, admitted requests drain,
	//    replicas release.
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("drained cleanly; total time %v\n", time.Since(start).Round(time.Millisecond))
}
