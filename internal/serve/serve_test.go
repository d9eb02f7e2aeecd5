package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/cosmo"
	"repro/internal/nn"
	"repro/internal/serve/api"
	"repro/internal/tensor"
)

const (
	testDim  = 8
	testBase = 2
)

// testCheckpoint builds a deterministic network, saves it, and returns the
// checkpoint path plus a reference network loaded the way cosmoflow-infer
// would load it.
func testCheckpoint(t testing.TB, seed int64) (string, *nn.Network) {
	t.Helper()
	topo := nn.TopologyConfig{InputDim: testDim, BaseChannels: testBase, Seed: seed}
	net, err := nn.BuildCosmoFlow(topo)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := net.SaveCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	ref, err := nn.BuildCosmoFlow(topo)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.LoadCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	return path, ref
}

func testModelConfig(ckpt string) ModelConfig {
	return ModelConfig{
		Topology:       nn.TopologyConfig{InputDim: testDim, BaseChannels: testBase, Seed: 1},
		CheckpointPath: ckpt,
		Replicas:       4,
		MaxBatch:       4,
		MaxDelay:       time.Millisecond,
	}
}

func testSamples(n int, seed int64) []*cosmo.Sample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*cosmo.Sample, n)
	for i := range out {
		target := [3]float32{rng.Float32(), rng.Float32(), rng.Float32()}
		out[i] = cosmo.SyntheticSample(testDim, target, rng.Int63())
	}
	return out
}

// forwardRef is the per-sample reference prediction: the training path's
// Forward on the reference network, which shares neither the batch loop
// nor the buffer pool with the served InferBatch.
func forwardRef(ref *nn.Network, s *cosmo.Sample) [3]float32 {
	return [3]float32(ref.Forward(tensor.FromData(s.Voxels, ref.InputShape()...)).Data())
}

// TestConcurrentPredictionsMatchSequential is the core concurrency-safety
// contract: N goroutines hammering the replica pool must produce
// bit-identical predictions to the sequential per-sample Forward on the
// same checkpoint.
func TestConcurrentPredictionsMatchSequential(t *testing.T) {
	ckpt, ref := testCheckpoint(t, 42)
	reg := NewRegistry()
	defer reg.Close()
	m, err := reg.Load(testModelConfig(ckpt))
	if err != nil {
		t.Fatal(err)
	}

	samples := testSamples(64, 7)
	want := make([][3]float32, len(samples))
	for i, s := range samples {
		want[i] = forwardRef(ref, s)
	}

	const workers = 8
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	var mismatches sync.Map
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(samples); i += workers {
				pred, err := m.Predict(samples[i].Voxels)
				if err != nil {
					errCh <- err
					return
				}
				if pred.Normalized != want[i] {
					mismatches.Store(i, pred.Normalized)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	mismatches.Range(func(k, v any) bool {
		i := k.(int)
		t.Errorf("sample %d: concurrent %v != sequential %v", i, v, want[i])
		return true
	})

	st := m.Stats()
	if st.Requests != int64(len(samples)) {
		t.Errorf("metrics recorded %d requests, want %d", st.Requests, len(samples))
	}
	if st.Errors != 0 {
		t.Errorf("metrics recorded %d errors, want 0", st.Errors)
	}
}

// TestPredictHTTPRoundTrip exercises the full HTTP path against httptest,
// checking the JSON answer denormalizes exactly like train.Evaluate.
func TestPredictHTTPRoundTrip(t *testing.T) {
	ckpt, ref := testCheckpoint(t, 43)
	reg := NewRegistry()
	defer reg.Close()
	if _, err := reg.Load(testModelConfig(ckpt)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(reg, "").Handler())
	defer srv.Close()

	s := testSamples(1, 11)[0]
	body, err := json.Marshal(api.PredictRequest{Voxels: s.Voxels})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/models/"+DefaultModel+":predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var got api.PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}

	wantNorm := forwardRef(ref, s)
	wantParams := cosmo.DefaultPriors().Denormalize(wantNorm)
	for i := 0; i < 3; i++ {
		if math.Abs(float64(got.Normalized[i]-wantNorm[i])) > 1e-6 {
			t.Errorf("normalized[%d] = %v, want %v", i, got.Normalized[i], wantNorm[i])
		}
	}
	if math.Abs(got.Params.OmegaM-wantParams.OmegaM) > 1e-9 ||
		math.Abs(got.Params.Sigma8-wantParams.Sigma8) > 1e-9 ||
		math.Abs(got.Params.NS-wantParams.NS) > 1e-9 {
		t.Errorf("params %+v, want %+v", got.Params, wantParams)
	}
	if got.Model != DefaultModel {
		t.Errorf("model %q, want %q", got.Model, DefaultModel)
	}
	if got.BatchSize < 1 {
		t.Errorf("batch size %d, want >= 1", got.BatchSize)
	}
}

// TestHTTPErrors checks the API's failure envelope: wrong method, bad
// body, unknown model, wrong voxel count.
func TestHTTPErrors(t *testing.T) {
	ckpt, _ := testCheckpoint(t, 44)
	reg := NewRegistry()
	defer reg.Close()
	if _, err := reg.Load(testModelConfig(ckpt)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(reg, "").Handler())
	defer srv.Close()

	predictURL := func(model string) string { return srv.URL + "/v1/models/" + model + ":predict" }
	post := func(model, body string) *http.Response {
		resp, err := http.Post(predictURL(model), "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp, err := http.Get(predictURL(DefaultModel)); err != nil {
		t.Fatal(err)
	} else if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET :predict status %d, want 405", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if resp := post(DefaultModel, "{not json"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON status %d, want 400", resp.StatusCode)
	}
	if resp := post("nope", `{"voxels":[1]}`); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown model status %d, want 404", resp.StatusCode)
	}
	if resp := post(DefaultModel, `{"voxels":[1,2,3]}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("wrong voxel count status %d, want 400", resp.StatusCode)
	} else {
		var env api.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil ||
			env.Error.Code != api.CodeInvalidArgument || env.Error.Message == "" {
			t.Errorf("wrong voxel count error body not the envelope: %+v (err %v)", env, err)
		}
	}
}

// TestHealthzAndStats exercises the observability endpoints.
func TestHealthzAndStats(t *testing.T) {
	ckpt, _ := testCheckpoint(t, 45)
	reg := NewRegistry()
	defer reg.Close()
	m, err := reg.Load(testModelConfig(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(reg, "").Handler())
	defer srv.Close()

	// Generate some traffic so /stats has content.
	for _, s := range testSamples(5, 21) {
		if _, err := m.Predict(s.Voxels); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health api.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || len(health.Models) != 1 ||
		health.Models[0].Name != DefaultModel || health.Models[0].State != string(StateReady) {
		t.Errorf("healthz = %+v", health)
	}

	resp, err = http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats api.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ms, ok := stats.Models[DefaultModel]
	if !ok {
		t.Fatalf("stats missing model %q: %+v", DefaultModel, stats)
	}
	if ms.Requests != 5 || ms.Replicas != 4 || ms.Batches < 1 {
		t.Errorf("stats = %+v", ms)
	}
	if ms.P50Ms <= 0 || ms.P99Ms < ms.P50Ms {
		t.Errorf("latency quantiles p50=%v p99=%v", ms.P50Ms, ms.P99Ms)
	}
	// Kernel time is metered per batch, separately from queue wait: compute
	// must be non-zero, and neither component can exceed the end-to-end
	// mean it decomposes.
	if ms.AvgKernelMs <= 0 {
		t.Errorf("avg_kernel_ms = %v, want > 0", ms.AvgKernelMs)
	}
	if ms.AvgQueueMs < 0 {
		t.Errorf("avg_queue_ms = %v, want >= 0", ms.AvgQueueMs)
	}
	if ms.AvgQueueMs > ms.MeanMs {
		t.Errorf("avg_queue_ms %v exceeds mean latency %v", ms.AvgQueueMs, ms.MeanMs)
	}
}

// TestHotSwap checks Load with an existing name atomically replaces the
// model and drains the displaced instance.
func TestHotSwap(t *testing.T) {
	ckptA, refA := testCheckpoint(t, 46)
	ckptB, refB := testCheckpoint(t, 47)
	reg := NewRegistry()
	defer reg.Close()

	s := testSamples(1, 31)[0]
	wantA, wantB := forwardRef(refA, s), forwardRef(refB, s)
	if wantA == wantB {
		t.Fatal("test checkpoints should differ")
	}

	mA, err := reg.Load(testModelConfig(ckptA))
	if err != nil {
		t.Fatal(err)
	}
	if pred, err := mA.Predict(s.Voxels); err != nil || pred.Normalized != wantA {
		t.Fatalf("pre-swap predict = %v, %v; want %v", pred, err, wantA)
	}

	if _, err := reg.Load(testModelConfig(ckptB)); err != nil {
		t.Fatal(err)
	}
	mB, ok := reg.Get(DefaultModel)
	if !ok {
		t.Fatal("model vanished after hot-swap")
	}
	if pred, err := mB.Predict(s.Voxels); err != nil || pred.Normalized != wantB {
		t.Fatalf("post-swap predict = %v, %v; want %v", pred, err, wantB)
	}

	// The displaced instance eventually refuses new work (it drains on a
	// background goroutine).
	deadline := time.After(5 * time.Second)
	for {
		if _, err := mA.Predict(s.Voxels); err == ErrClosed {
			break
		}
		select {
		case <-deadline:
			t.Fatal("old model instance never closed after hot-swap")
		case <-time.After(time.Millisecond):
		}
	}
}

// TestLoadAfterCloseRefused checks a Load racing (or following) Close
// cannot install a model the shutdown will never drain.
func TestLoadAfterCloseRefused(t *testing.T) {
	ckpt, _ := testCheckpoint(t, 50)
	reg := NewRegistry()
	reg.Close()
	if _, err := reg.Load(testModelConfig(ckpt)); err != ErrClosed {
		t.Fatalf("Load after Close = %v, want ErrClosed", err)
	}
}

// TestRunBatchRecoversPanic checks a panicking forward pass fails its
// batch's requests with an error instead of crashing the process, and that
// the model keeps serving afterwards.
func TestRunBatchRecoversPanic(t *testing.T) {
	ckpt, _ := testCheckpoint(t, 49)
	reg := NewRegistry()
	defer reg.Close()
	m, err := reg.Load(testModelConfig(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	// Model.Predict validates lengths, so inject a malformed request
	// directly into the dispatch path: runBatch's Wrap panics.
	r := &request{
		voxels:   []float32{1, 2, 3},
		enqueued: time.Now(), done: make(chan result, 1),
	}
	m.runBatch([]*request{r})
	if res := <-r.done; res.err == nil {
		t.Fatal("panicking batch delivered no error")
	}
	// The replica returned to the pool must still serve.
	s := testSamples(1, 51)[0]
	if _, err := m.Predict(s.Voxels); err != nil {
		t.Fatalf("model unusable after recovered panic: %v", err)
	}
}

// TestGracefulShutdownDrains checks Server.Shutdown answers every admitted
// request before tearing the models down.
func TestGracefulShutdownDrains(t *testing.T) {
	ckpt, _ := testCheckpoint(t, 48)
	reg := NewRegistry()
	cfg := testModelConfig(ckpt)
	cfg.Replicas = 2 // fewer replicas -> requests actually queue
	cfg.MaxDelay = 5 * time.Millisecond
	m, err := reg.Load(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(reg, "")
	srv := httptest.NewServer(s.Handler())

	samples := testSamples(16, 41)
	var wg sync.WaitGroup
	codes := make([]int, len(samples))
	for i, smp := range samples {
		wg.Add(1)
		go func(i int, voxels []float32) {
			defer wg.Done()
			body, _ := json.Marshal(api.PredictRequest{Voxels: voxels})
			resp, err := http.Post(srv.URL+"/v1/models/"+DefaultModel+":predict", "application/json", bytes.NewReader(body))
			if err != nil {
				codes[i] = -1
				return
			}
			defer resp.Body.Close()
			var pr api.PredictResponse
			if resp.StatusCode == http.StatusOK {
				if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
					codes[i] = -2
					return
				}
			}
			codes[i] = resp.StatusCode
		}(i, smp.Voxels)
	}

	// Wait until every request has been admitted (queued or answered), so
	// the shutdown below exercises the drain path rather than racing the
	// HTTP handshakes, then drain. Server.Shutdown is the path the daemon
	// takes on SIGTERM.
	admitted := func() bool {
		st := m.Stats()
		return st.Requests+st.Inflight >= int64(len(samples))
	}
	for deadline := time.Now().Add(5 * time.Second); !admitted(); {
		if time.Now().After(deadline) {
			t.Fatal("requests were never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	srv.Close()

	for i, code := range codes {
		if code != http.StatusOK {
			t.Errorf("request %d finished with %d during graceful shutdown, want 200", i, code)
		}
	}
	if m, ok := reg.Get(DefaultModel); ok {
		if st := m.Stats(); st.Inflight != 0 {
			t.Errorf("inflight = %d after drain, want 0", st.Inflight)
		}
	}
}
