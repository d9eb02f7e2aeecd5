package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cosmo"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/serve/api"
	"repro/internal/serve/client"
	"repro/internal/serve/wire"
)

const (
	testDim  = 8
	testBase = 2
)

// testCheckpoint writes one deterministic checkpoint every backend in a
// test pool loads, so the pool's members are weight-identical the way a
// real deployment's are.
func testCheckpoint(t testing.TB) string {
	t.Helper()
	net, err := nn.BuildCosmoFlow(nn.TopologyConfig{InputDim: testDim, BaseChannels: testBase, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := net.SaveCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// testBackend is one real cosmoflow-serve instance on a real TCP port
// (not httptest, so a killed backend's address can be revived to test
// re-admission).
type testBackend struct {
	reg  *serve.Registry
	hs   *http.Server
	addr string
	url  string
}

func startBackendOn(t testing.TB, addr, ckpt string) *testBackend {
	t.Helper()
	reg := serve.NewRegistry()
	if _, err := reg.Load(serve.ModelConfig{
		Topology:       nn.TopologyConfig{InputDim: testDim, BaseChannels: testBase, Seed: 1},
		CheckpointPath: ckpt,
		Replicas:       2,
		MaxBatch:       4,
		MaxDelay:       time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: serve.NewServer(reg, "").Handler()}
	go func() { _ = hs.Serve(l) }()
	b := &testBackend{reg: reg, hs: hs, addr: l.Addr().String(), url: "http://" + l.Addr().String()}
	t.Cleanup(func() { b.kill(); reg.Close() })
	return b
}

func startBackend(t testing.TB, ckpt string) *testBackend {
	return startBackendOn(t, "127.0.0.1:0", ckpt)
}

// kill drops the backend abruptly (listener and all connections), the
// way a crashed process disappears.
func (b *testBackend) kill() { _ = b.hs.Close() }

// testGateway stands up a gateway over the given backends with probe
// timings fast enough for tests.
func testGateway(t testing.TB, cfg Config, urls ...string) (*Gateway, *httptest.Server) {
	t.Helper()
	cfg.Backends = urls
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 25 * time.Millisecond
	}
	if cfg.ProbeTimeout == 0 {
		cfg.ProbeTimeout = time.Second
	}
	if cfg.ReadmitAfter == 0 {
		cfg.ReadmitAfter = 100 * time.Millisecond
	}
	if cfg.BackendTimeout == 0 {
		cfg.BackendTimeout = 5 * time.Second
	}
	gw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(gw.Handler())
	t.Cleanup(func() { srv.Close(); gw.Close() })
	return gw, srv
}

func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func waitReady(t testing.TB, gwURL string) {
	t.Helper()
	waitFor(t, "gateway readiness", func() bool {
		resp, err := http.Get(gwURL + "/healthz")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode == http.StatusOK
	})
}

// waitAllReady waits until every pool member is ready. /healthz answers
// 200 once one backend serves each model, which is too early for a test
// that needs the whole pool routable.
func waitAllReady(t testing.TB, gw *Gateway) {
	t.Helper()
	waitFor(t, "every backend ready", func() bool {
		for _, b := range gw.Pool().Backends() {
			if b.State() != StateReady {
				return false
			}
		}
		return true
	})
}

func testVoxels(t testing.TB, n int, seed int64) [][]float32 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float32, n)
	for i := range out {
		target := [3]float32{rng.Float32(), rng.Float32(), rng.Float32()}
		out[i] = cosmo.SyntheticSample(testDim, target, rng.Int63()).Voxels
	}
	return out
}

func binBody(t testing.TB, vox []float32) []byte {
	t.Helper()
	tt, err := wire.FromFloat32([]int{1, testDim, testDim, testDim}, vox)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tt.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// batchBody encodes volumes as one [N 1 D H W] float32 frame.
func batchBody(t testing.TB, volumes [][]float32) []byte {
	t.Helper()
	flat := make([]float32, 0, len(volumes)*len(volumes[0]))
	for _, v := range volumes {
		flat = append(flat, v...)
	}
	tt, err := wire.FromFloat32([]int{len(volumes), 1, testDim, testDim, testDim}, flat)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tt.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postPredict(t testing.TB, base string, body []byte, ct, accept string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost,
		base+"/v1/models/"+api.DefaultModel+":predict", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ct)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func readAll(t testing.TB, resp *http.Response, wantStatus int) []byte {
	t.Helper()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("status %d (want %d): %s", resp.StatusCode, wantStatus, data)
	}
	return data
}

// TestPredictBitIdentity is the tentpole acceptance: the same request
// sent directly to a backend and through the gateway yields the same
// answer — byte-identical response bodies on the binary path (the frame
// carries only deterministic values), and bit-identical params/normalized
// on the JSON path (whose body also carries per-request latency).
func TestPredictBitIdentity(t *testing.T) {
	ckpt := testCheckpoint(t)
	b1 := startBackend(t, ckpt)
	b2 := startBackend(t, ckpt)
	_, gws := testGateway(t, Config{}, b1.url, b2.url)
	waitReady(t, gws.URL)

	vox := testVoxels(t, 1, 3)[0]
	bin := binBody(t, vox)
	jsonReq, err := json.Marshal(api.PredictRequest{Voxels: vox})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("binary", func(t *testing.T) {
		direct := readAll(t, postPredict(t, b1.url, bin, wire.ContentTypeTensor, wire.ContentTypeTensor), 200)
		viaGW := postPredict(t, gws.URL, bin, wire.ContentTypeTensor, wire.ContentTypeTensor)
		gwBody := readAll(t, viaGW, 200)
		if !bytes.Equal(direct, gwBody) {
			t.Fatalf("binary body differs through gateway:\ndirect %x\ngateway %x", direct, gwBody)
		}
		if got := viaGW.Header.Get(api.HeaderBackend); got != b1.url && got != b2.url {
			t.Fatalf("X-Cosmoflow-Backend = %q, want one of the pool", got)
		}
	})

	t.Run("json", func(t *testing.T) {
		var direct, viaGW api.PredictResponse
		if err := json.Unmarshal(readAll(t, postPredict(t, b1.url, jsonReq, wire.ContentTypeJSON, ""), 200), &direct); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(readAll(t, postPredict(t, gws.URL, jsonReq, wire.ContentTypeJSON, ""), 200), &viaGW); err != nil {
			t.Fatal(err)
		}
		if direct.Params != viaGW.Params || direct.Normalized != viaGW.Normalized {
			t.Fatalf("JSON answers differ through gateway:\ndirect  %+v %v\ngateway %+v %v",
				direct.Params, direct.Normalized, viaGW.Params, viaGW.Normalized)
		}
	})
}

// TestScatterGatherBitIdentity: a batched [N C D H W] frame through the
// gateway must reassemble, in order, exactly the frames each volume
// yields when sent directly to a backend; likewise the JSON batch form.
func TestScatterGatherBitIdentity(t *testing.T) {
	ckpt := testCheckpoint(t)
	b1 := startBackend(t, ckpt)
	b2 := startBackend(t, ckpt)
	b3 := startBackend(t, ckpt)
	gw, gws := testGateway(t, Config{}, b1.url, b2.url, b3.url)
	waitReady(t, gws.URL)

	const n = 7
	volumes := testVoxels(t, n, 11)

	// Direct per-volume reference frames ([2 3] float64 each).
	var want [][]float64
	for _, vox := range volumes {
		resp := postPredict(t, b1.url, binBody(t, vox), wire.ContentTypeTensor, wire.ContentTypeTensor)
		tt, err := wire.ReadTensor(bytes.NewReader(readAll(t, resp, 200)), 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, tt.F64)
	}

	t.Run("binary", func(t *testing.T) {
		resp := postPredict(t, gws.URL, batchBody(t, volumes), wire.ContentTypeTensor, wire.ContentTypeTensor)
		body := readAll(t, resp, 200)
		tt, err := wire.ReadTensor(bytes.NewReader(body), 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if len(tt.Dims) != 3 || tt.Dims[0] != n || tt.Dims[1] != 2 || tt.Dims[2] != 3 {
			t.Fatalf("batch response dims = %v, want [%d 2 3]", tt.Dims, n)
		}
		for i := 0; i < n; i++ {
			got := tt.F64[6*i : 6*i+6]
			for j := range got {
				if got[j] != want[i][j] {
					t.Fatalf("volume %d element %d: gateway %v, direct %v", i, j, got[j], want[i][j])
				}
			}
		}
	})

	t.Run("json", func(t *testing.T) {
		jb, err := json.Marshal(api.PredictRequest{Batch: volumes})
		if err != nil {
			t.Fatal(err)
		}
		resp := postPredict(t, gws.URL, jb, wire.ContentTypeJSON, "")
		var br api.BatchPredictResponse
		if err := json.Unmarshal(readAll(t, resp, 200), &br); err != nil {
			t.Fatal(err)
		}
		if br.Count != n || len(br.Predictions) != n {
			t.Fatalf("count = %d/%d, want %d", br.Count, len(br.Predictions), n)
		}
		spread := map[string]int{}
		for i, p := range br.Predictions {
			got := []float64{p.Params.OmegaM, p.Params.Sigma8, p.Params.NS,
				float64(p.Normalized[0]), float64(p.Normalized[1]), float64(p.Normalized[2])}
			for j := range got {
				if got[j] != want[i][j] {
					t.Fatalf("volume %d element %d: gateway %v, direct %v", i, j, got[j], want[i][j])
				}
			}
			spread[p.Backend]++
		}
		// The scatter must actually use the pool, not trickle through one
		// member.
		if len(spread) < 2 {
			t.Fatalf("scatter used %d backend(s): %v", len(spread), spread)
		}
	})
	if gw.ctr.scattered.Load() < 2 {
		t.Fatalf("scattered counter = %d, want >= 2", gw.ctr.scattered.Load())
	}
}

// TestScatterFailover: sub-volumes a backend refuses with 503 fail over to
// the healthy member, so every batch still reassembles bit-identically to
// direct calls.
func TestScatterFailover(t *testing.T) {
	ckpt := testCheckpoint(t)
	good := startBackend(t, ckpt)
	inner := startBackend(t, ckpt)
	refusing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			api.WriteAPIError(w, "", http.StatusServiceUnavailable, api.CodeUnavailable, "refusing predicts")
			return
		}
		proxyTo(w, r, inner.url)
	}))
	t.Cleanup(refusing.Close)
	gw, gws := testGateway(t, Config{}, good.url, refusing.URL)
	waitAllReady(t, gw)

	const n = 8
	for round := 0; round < 3; round++ {
		volumes := testVoxels(t, n, int64(40+round))
		var want [][]float64
		for _, vox := range volumes {
			resp := postPredict(t, good.url, binBody(t, vox), wire.ContentTypeTensor, wire.ContentTypeTensor)
			tt, err := wire.ReadTensor(bytes.NewReader(readAll(t, resp, 200)), 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, tt.F64)
		}

		resp := postPredict(t, gws.URL, batchBody(t, volumes), wire.ContentTypeTensor, wire.ContentTypeTensor)
		tt, err := wire.ReadTensor(bytes.NewReader(readAll(t, resp, 200)), 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j, v := range tt.F64[6*i : 6*i+6] {
				if v != want[i][j] {
					t.Fatalf("round %d tensor volume %d element %d: gateway %v, direct %v", round, i, j, v, want[i][j])
				}
			}
		}

		jb, err := json.Marshal(api.PredictRequest{Batch: volumes})
		if err != nil {
			t.Fatal(err)
		}
		var br api.BatchPredictResponse
		if err := json.Unmarshal(readAll(t, postPredict(t, gws.URL, jb, wire.ContentTypeJSON, ""), 200), &br); err != nil {
			t.Fatal(err)
		}
		if len(br.Predictions) != n {
			t.Fatalf("round %d: %d predictions, want %d", round, len(br.Predictions), n)
		}
		for i, p := range br.Predictions {
			got := []float64{p.Params.OmegaM, p.Params.Sigma8, p.Params.NS,
				float64(p.Normalized[0]), float64(p.Normalized[1]), float64(p.Normalized[2])}
			for j := range got {
				if got[j] != want[i][j] {
					t.Fatalf("round %d JSON volume %d element %d: gateway %v, direct %v", round, i, j, got[j], want[i][j])
				}
			}
			if p.Backend != good.url {
				t.Fatalf("round %d JSON volume %d served by %s, want the healthy %s", round, i, p.Backend, good.url)
			}
		}
	}
	if gw.ctr.retries.Load() == 0 {
		t.Fatal("retries = 0; no sub-volume failed over from the refusing backend")
	}
}

// TestFailoverUnderBackendLoss: killing one of three backends mid-stream
// must cause zero client-visible failures — in-flight losses are retried
// on the survivors, and the dead member is ejected.
func TestFailoverUnderBackendLoss(t *testing.T) {
	ckpt := testCheckpoint(t)
	b1 := startBackend(t, ckpt)
	b2 := startBackend(t, ckpt)
	b3 := startBackend(t, ckpt)
	gw, gws := testGateway(t, Config{EjectAfter: 2}, b1.url, b2.url, b3.url)
	waitReady(t, gws.URL)

	cl := client.New(gws.URL, client.WithEncoding(client.Binary))
	vox := testVoxels(t, 1, 5)[0]
	for i := 0; i < 60; i++ {
		if i == 20 {
			b2.kill()
		}
		if _, err := cl.Predict(context.Background(), "", []int{1, testDim, testDim, testDim}, vox); err != nil {
			t.Fatalf("request %d failed after backend loss: %v", i, err)
		}
	}
	waitFor(t, "dead backend ejection", func() bool {
		for _, b := range gw.Pool().Backends() {
			if b.Addr() == b2.url {
				return b.State() == StateEjected
			}
		}
		return false
	})
	// Once ejected, traffic flows without touching the dead member at all.
	for i := 0; i < 10; i++ {
		pr, err := cl.Predict(context.Background(), "", []int{1, testDim, testDim, testDim}, vox)
		if err != nil {
			t.Fatalf("post-ejection request %d failed: %v", i, err)
		}
		if pr.Backend == b2.url {
			t.Fatalf("post-ejection request served by ejected backend %s", pr.Backend)
		}
	}
}

// TestEjectionAndReadmission: a dead backend is ejected by failed probes
// and re-admitted — and routed to again — once it comes back on the same
// address.
func TestEjectionAndReadmission(t *testing.T) {
	ckpt := testCheckpoint(t)
	b1 := startBackend(t, ckpt)
	b2 := startBackend(t, ckpt)
	gw, gws := testGateway(t, Config{EjectAfter: 2}, b1.url, b2.url)
	waitReady(t, gws.URL)

	find := func(url string) *Backend {
		for _, b := range gw.Pool().Backends() {
			if b.Addr() == url {
				return b
			}
		}
		t.Fatalf("backend %s not in pool", url)
		return nil
	}

	b2.kill()
	waitFor(t, "ejection", func() bool { return find(b2.url).State() == StateEjected })

	// Revive on the same address; the cooldown probe must re-admit it.
	revived := startBackendOn(t, b2.addr, ckpt)
	waitFor(t, "re-admission", func() bool { return find(revived.url).State() == StateReady })

	// And it serves traffic again: with least-outstanding rotation, a
	// couple of requests must land on it.
	cl := client.New(gws.URL)
	vox := testVoxels(t, 1, 9)[0]
	waitFor(t, "traffic on re-admitted backend", func() bool {
		pr, err := cl.Predict(context.Background(), "", []int{1, testDim, testDim, testDim}, vox)
		if err != nil {
			t.Fatalf("predict after re-admission: %v", err)
		}
		return pr.Backend == revived.url
	})
}

// TestHealthzPerModelReadiness: the gateway reports unavailable until
// every model known to the pool has at least one ready backend.
func TestHealthzPerModelReadiness(t *testing.T) {
	ckpt := testCheckpoint(t)
	b1 := startBackend(t, ckpt)
	b2 := startBackend(t, ckpt)
	_, gws := testGateway(t, Config{}, b1.url, b2.url)
	waitReady(t, gws.URL)

	// Load a second model on ONE backend only (direct, not fan-out): the
	// gateway must stay ready — one ready backend per model suffices.
	cl1 := client.New(b1.url)
	if _, err := cl1.LoadModel(context.Background(), "solo", api.LoadModelRequest{
		InputDim: testDim, BaseChannels: testBase, Replicas: 1,
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "solo model visible and gateway still ready", func() bool {
		gcl := client.New(gws.URL)
		h, err := gcl.Health(context.Background())
		if err != nil {
			return false
		}
		hasSolo := false
		for _, m := range h.Models {
			if m.Name == "solo" && m.State == api.StateReady {
				hasSolo = true
			}
		}
		return hasSolo && h.Status == "ok"
	})

	// Unload it from its only host: the model disappears from the pool
	// after the next probe and the gateway stays ready (absent ≠ broken).
	if err := cl1.UnloadModel(context.Background(), "solo"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "solo model gone", func() bool {
		gcl := client.New(gws.URL)
		h, err := gcl.Health(context.Background())
		if err != nil {
			return false
		}
		for _, m := range h.Models {
			if m.Name == "solo" {
				return false
			}
		}
		return h.Status == "ok"
	})
}

// TestHealthzUnavailableWhenPoolEmpty: with no reachable backend the
// gateway must answer 503, mirroring a single backend's empty registry.
func TestHealthzUnavailableWhenPoolEmpty(t *testing.T) {
	_, gws := testGateway(t, Config{}, "http://127.0.0.1:1") // nothing listens there
	resp, err := http.Get(gws.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz = %d with empty pool, want 503", resp.StatusCode)
	}
}

// TestNewRequiresBackend pins the only way to configure a pool: the
// backend list given to New. An empty or all-blank list is refused, and
// spellings of one URL that differ only in whitespace or a trailing
// slash collapse to one member.
func TestNewRequiresBackend(t *testing.T) {
	for _, backends := range [][]string{nil, {""}, {" ", "/"}} {
		if gw, err := New(Config{Backends: backends}); err == nil || !strings.Contains(err.Error(), "at least one backend") {
			if gw != nil {
				gw.Close()
			}
			t.Fatalf("New(%q) err = %v, want the at-least-one-backend error", backends, err)
		}
	}
	const addr = "http://127.0.0.1:1" // nothing listens there
	gw, err := New(Config{Backends: []string{addr, addr + "/", " " + addr + " "}})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	var members []string
	for _, b := range gw.Pool().Backends() {
		members = append(members, b.Addr())
	}
	if len(members) != 1 || members[0] != addr {
		t.Fatalf("pool = %q, want the single member %q", members, addr)
	}
}

// TestLifecycleFanout: PUT/DELETE through the gateway must converge every
// reachable backend and aggregate the per-backend outcomes.
func TestLifecycleFanout(t *testing.T) {
	ckpt := testCheckpoint(t)
	b1 := startBackend(t, ckpt)
	b2 := startBackend(t, ckpt)
	b3 := startBackend(t, ckpt)
	_, gws := testGateway(t, Config{}, b1.url, b2.url, b3.url)
	waitReady(t, gws.URL)

	spec, err := json.Marshal(api.LoadModelRequest{InputDim: testDim, BaseChannels: testBase, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, gws.URL+"/v1/models/alt", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", wire.ContentTypeJSON)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var fr api.FanoutResponse
	if err := json.Unmarshal(readAll(t, resp, 200), &fr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(fr.Results) != 3 {
		t.Fatalf("fan-out hit %d backends, want 3: %+v", len(fr.Results), fr)
	}
	for _, r := range fr.Results {
		if r.Status != "ok" {
			t.Fatalf("fan-out result %+v", r)
		}
	}
	// Every backend really has it (checked directly, not via the gateway).
	for _, b := range []*testBackend{b1, b2, b3} {
		if _, err := client.New(b.url).GetModel(context.Background(), "alt"); err != nil {
			t.Fatalf("backend %s missing alt after fan-out: %v", b.url, err)
		}
	}

	// Predict on the fanned-out model through the gateway.
	vox := testVoxels(t, 1, 13)[0]
	waitFor(t, "alt model routable", func() bool {
		gcl := client.New(gws.URL)
		_, err := gcl.Predict(context.Background(), "alt", []int{1, testDim, testDim, testDim}, vox)
		return err == nil
	})

	// DELETE broadcast; the model must vanish from every member.
	delReq, err := http.NewRequest(http.MethodDelete, gws.URL+"/v1/models/alt", nil)
	if err != nil {
		t.Fatal(err)
	}
	delResp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, delResp, 200)
	delResp.Body.Close()
	for _, b := range []*testBackend{b1, b2, b3} {
		if _, err := client.New(b.url).GetModel(context.Background(), "alt"); err == nil {
			t.Fatalf("backend %s still has alt after fan-out unload", b.url)
		}
	}

	// A fan-out with a dead member reports the divergence: 502 with the
	// per-backend detail, and the survivors converged anyway.
	b3.kill()
	// Don't wait for ejection — the point is a reachable-but-dead member.
	req2, err := http.NewRequest(http.MethodPut, gws.URL+"/v1/models/alt2", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	req2.Header.Set("Content-Type", wire.ContentTypeJSON)
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body2, _ := io.ReadAll(resp2.Body)
	if resp2.StatusCode == http.StatusOK {
		// The probe may already have ejected b3, in which case the
		// broadcast legitimately skipped it.
		var fr2 api.FanoutResponse
		if err := json.Unmarshal(body2, &fr2); err != nil {
			t.Fatal(err)
		}
		if len(fr2.Results) != 2 {
			t.Fatalf("fan-out after ejection hit %d backends, want 2: %s", len(fr2.Results), body2)
		}
	} else if resp2.StatusCode != http.StatusBadGateway {
		t.Fatalf("fan-out with dead member = %d, want 200 (ejected) or 502: %s", resp2.StatusCode, body2)
	} else {
		var env api.ErrorResponse
		if err := json.Unmarshal(body2, &env); err != nil {
			t.Fatal(err)
		}
		if env.Error.Code != api.CodeUpstream || env.Error.Details == nil {
			t.Fatalf("fan-out failure envelope = %+v, want UPSTREAM with details", env.Error)
		}
	}
}

// TestAggregatedModelsAndStats: GET /v1/models merges the pool view and
// GET /stats carries the per-backend aggregation DTO.
func TestAggregatedModelsAndStats(t *testing.T) {
	ckpt := testCheckpoint(t)
	b1 := startBackend(t, ckpt)
	b2 := startBackend(t, ckpt)
	gw, gws := testGateway(t, Config{}, b1.url, b2.url)
	// /healthz answers 200 once one backend is ready; the stats check
	// below wants both.
	waitAllReady(t, gw)

	gcl := client.New(gws.URL)
	models, err := gcl.ListModels(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 1 || models[0].Name != api.DefaultModel || models[0].State != api.StateReady {
		t.Fatalf("aggregated models = %+v", models)
	}

	if _, err := gcl.Predict(context.Background(), "",
		[]int{1, testDim, testDim, testDim}, testVoxels(t, 1, 17)[0]); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(gws.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st api.GatewayStatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Policy != PolicyLeastOutstanding || len(st.Backends) != 2 {
		t.Fatalf("gateway stats = %+v", st)
	}
	if st.Gateway.Requests < 1 {
		t.Fatalf("gateway requests counter = %d, want >= 1", st.Gateway.Requests)
	}
	var total int64
	for _, b := range st.Backends {
		if b.State != api.BackendReady {
			t.Fatalf("backend %s state = %s, want ready", b.Backend, b.State)
		}
		total += b.Requests
	}
	if total < 1 {
		t.Fatalf("no backend saw the routed request: %+v", st.Backends)
	}
}

// TestRetriesDisabledPassesThroughBackendError: with failover off
// (Retries < 0) a backend's 503 is the last word, so its error envelope
// reaches the client verbatim, tagged with the refusing member, and no
// retry is counted; with the default config the same pool answers every
// request from the healthy member.
func TestRetriesDisabledPassesThroughBackendError(t *testing.T) {
	ckpt := testCheckpoint(t)
	good := startBackend(t, ckpt)
	inner := startBackend(t, ckpt)
	refusing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			api.WriteAPIError(w, "", http.StatusServiceUnavailable, api.CodeUnavailable, "refusing predicts")
			return
		}
		proxyTo(w, r, inner.url)
	}))
	t.Cleanup(refusing.Close)
	rec := httptest.NewRecorder()
	api.WriteAPIError(rec, "", http.StatusServiceUnavailable, api.CodeUnavailable, "refusing predicts")
	wantBody := rec.Body.Bytes()

	body := binBody(t, testVoxels(t, 1, 29)[0])
	// Sequential requests on an idle pool alternate between the two
	// members through leastOutstanding's round-robin tie-break.
	const n = 6
	gw, gws := testGateway(t, Config{Retries: -1}, good.url, refusing.URL)
	waitAllReady(t, gw)
	refused := 0
	for i := 0; i < n; i++ {
		resp := postPredict(t, gws.URL, body, wire.ContentTypeTensor, wire.ContentTypeTensor)
		backend := resp.Header.Get(api.HeaderBackend)
		if resp.StatusCode == http.StatusOK {
			readAll(t, resp, http.StatusOK)
			if backend != good.url {
				t.Fatalf("request %d: 200 from %q, want the healthy %s", i, backend, good.url)
			}
			continue
		}
		got := readAll(t, resp, http.StatusServiceUnavailable)
		refused++
		if backend != refusing.URL {
			t.Fatalf("request %d: %s = %q, want the refusing %s", i, api.HeaderBackend, backend, refusing.URL)
		}
		if !bytes.Equal(got, wantBody) {
			t.Fatalf("request %d: body %q, want the refuser's envelope %q verbatim", i, got, wantBody)
		}
	}
	if refused == 0 || refused == n {
		t.Fatalf("%d of %d requests refused; want the pool to alternate", refused, n)
	}
	if r := gw.ctr.retries.Load(); r != 0 {
		t.Fatalf("retries = %d with failover disabled, want 0", r)
	}

	gw, gws = testGateway(t, Config{}, good.url, refusing.URL)
	waitAllReady(t, gw)
	for i := 0; i < n; i++ {
		resp := postPredict(t, gws.URL, body, wire.ContentTypeTensor, wire.ContentTypeTensor)
		readAll(t, resp, http.StatusOK)
		if backend := resp.Header.Get(api.HeaderBackend); backend != good.url {
			t.Fatalf("default config request %d served by %q, want the healthy %s", i, backend, good.url)
		}
	}
}

// proxyTo forwards a request to inner verbatim (probe routes ride this;
// predict behavior is customized per test).
func proxyTo(w http.ResponseWriter, r *http.Request, innerURL string) {
	req, err := http.NewRequest(r.Method, innerURL+r.URL.Path, r.Body)
	if err != nil {
		http.Error(w, err.Error(), 500)
		return
	}
	req.Header = r.Header
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		http.Error(w, err.Error(), 502)
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		w.Header()[k] = vs
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// TestUnknownModelAndBadInput: gateway-level error mapping.
func TestUnknownModelAndBadInput(t *testing.T) {
	ckpt := testCheckpoint(t)
	b1 := startBackend(t, ckpt)
	_, gws := testGateway(t, Config{}, b1.url)
	waitReady(t, gws.URL)

	resp := postPredict(t, gws.URL, []byte(`{"voxels":[1,2,3]}`), wire.ContentTypeJSON, "")
	readAll(t, resp, 400) // wrong shape passes through the backend's 400

	req, err := http.NewRequest(http.MethodPost, gws.URL+"/v1/models/nope:predict",
		bytes.NewReader([]byte(`{"voxels":[1]}`)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", wire.ContentTypeJSON)
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		body, _ := io.ReadAll(r2.Body)
		t.Fatalf("predict on unknown model = %d, want 404: %s", r2.StatusCode, body)
	}

	// Mixed batch+voxels is the gateway's own 400.
	resp3 := postPredict(t, gws.URL, []byte(`{"voxels":[1],"batch":[[1]]}`), wire.ContentTypeJSON, "")
	readAll(t, resp3, 400)

	// Batch frame with a truncated payload is rejected before scatter.
	short, err := wire.EncodeHeader(nil, wire.Float32, []int{2, 1, testDim, testDim, testDim})
	if err != nil {
		t.Fatal(err)
	}
	resp4 := postPredict(t, gws.URL, append(short, 0, 0, 0, 0), wire.ContentTypeTensor, "")
	readAll(t, resp4, 400)
}

// TestUnknownRouteEnvelope: paths no route claims — the retired v0
// /predict and the retired admin routes among them — answer 404 with the
// JSON envelope, not the mux's text/plain default.
func TestUnknownRouteEnvelope(t *testing.T) {
	ckpt := testCheckpoint(t)
	b1 := startBackend(t, ckpt)
	_, gws := testGateway(t, Config{}, b1.url)
	waitReady(t, gws.URL)

	for _, route := range []string{"predict", "nope", "v1/nope", "v1/admin/canary", "v1/admin/supervisor"} {
		path := "/" + route
		for _, method := range []string{http.MethodGet, http.MethodPost} {
			req, err := http.NewRequest(method, gws.URL+path, bytes.NewReader([]byte(`{"voxels":[1]}`)))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", wire.ContentTypeJSON)
			req.Header.Set(api.HeaderRequestID, "rid-404")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body := readAll(t, resp, http.StatusNotFound)
			resp.Body.Close()
			if ct := resp.Header.Get("Content-Type"); ct != wire.ContentTypeJSON {
				t.Errorf("%s %s: Content-Type %q, want %q", method, path, ct, wire.ContentTypeJSON)
			}
			var env api.ErrorResponse
			if err := json.Unmarshal(body, &env); err != nil ||
				env.Error.Code != api.CodeNotFound || env.Error.RequestID != "rid-404" ||
				!strings.Contains(env.Error.Message, path) {
				t.Errorf("%s %s: envelope = %s (err %v), want %s naming the path", method, path, body, err, api.CodeNotFound)
			}
		}
	}
}

// TestConsistentHashPinsModel: under the hash policy every request for
// one model lands on the same backend while it stays healthy.
func TestConsistentHashPinsModel(t *testing.T) {
	ckpt := testCheckpoint(t)
	b1 := startBackend(t, ckpt)
	b2 := startBackend(t, ckpt)
	b3 := startBackend(t, ckpt)
	gw, gws := testGateway(t, Config{Policy: PolicyConsistentHash}, b1.url, b2.url, b3.url)
	// /healthz answers 200 once one backend is ready; wait for all three,
	// or the model's hash owner may join mid-loop and take over its traffic.
	waitAllReady(t, gw)

	cl := client.New(gws.URL)
	vox := testVoxels(t, 1, 29)[0]
	served := map[string]bool{}
	for i := 0; i < 12; i++ {
		pr, err := cl.Predict(context.Background(), "", []int{1, testDim, testDim, testDim}, vox)
		if err != nil {
			t.Fatal(err)
		}
		served[pr.Backend] = true
	}
	if len(served) != 1 {
		t.Fatalf("consistent-hash spread one model over %d backends: %v", len(served), served)
	}
}
