package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/serve/api"
	"repro/internal/serve/wire"
)

// v1TestServer stands up a registry with the default test model behind
// the full route mux.
func v1TestServer(t *testing.T, seed int64) (*Registry, *httptest.Server, func()) {
	t.Helper()
	ckpt, _ := testCheckpoint(t, seed)
	reg := NewRegistry()
	if _, err := reg.Load(testModelConfig(ckpt)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(reg, "").Handler())
	return reg, srv, func() { srv.Close(); reg.Close() }
}

func do(t *testing.T, req *http.Request) *http.Response {
	t.Helper()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func newReq(t *testing.T, method, url string, body []byte, hdr map[string]string) *http.Request {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	return req
}

// tensorBody encodes voxels as a [1 D H W] float32 frame.
func tensorBody(t *testing.T, dim int, voxels []float32) []byte {
	t.Helper()
	tensor, err := wire.FromFloat32([]int{1, dim, dim, dim}, voxels)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tensor.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestV1PredictBitIdentity is the core wire-format acceptance test: the
// same volume scored through v1 JSON, a v1 binary request, and v1 binary
// both ways yields bit-identical normalized outputs and identical
// denormalized parameters, all matching the reference per-sample
// Network.Forward.
func TestV1PredictBitIdentity(t *testing.T) {
	ckpt, ref := testCheckpoint(t, 61)
	reg := NewRegistry()
	defer reg.Close()
	if _, err := reg.Load(testModelConfig(ckpt)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(reg, "").Handler())
	defer srv.Close()

	s := testSamples(1, 62)[0]
	want := forwardRef(ref, s)
	predictURL := srv.URL + "/v1/models/" + DefaultModel + ":predict"
	jsonBody, err := json.Marshal(api.PredictRequest{Voxels: s.Voxels})
	if err != nil {
		t.Fatal(err)
	}
	binBody := tensorBody(t, testDim, s.Voxels)

	decodeJSON := func(t *testing.T, resp *http.Response) api.PredictResponse {
		t.Helper()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body)
			t.Fatalf("status %d: %s", resp.StatusCode, msg)
		}
		var pr api.PredictResponse
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
		return pr
	}

	var got []api.PredictResponse

	t.Run("v1-json", func(t *testing.T) {
		resp := do(t, newReq(t, http.MethodPost, predictURL, jsonBody,
			map[string]string{"Content-Type": wire.ContentTypeJSON}))
		got = append(got, decodeJSON(t, resp))
	})
	t.Run("v1-binary-request-json-response", func(t *testing.T) {
		resp := do(t, newReq(t, http.MethodPost, predictURL, binBody,
			map[string]string{"Content-Type": wire.ContentTypeTensor}))
		got = append(got, decodeJSON(t, resp))
	})
	t.Run("v1-binary-both-ways", func(t *testing.T) {
		resp := do(t, newReq(t, http.MethodPost, predictURL, binBody, map[string]string{
			"Content-Type": wire.ContentTypeTensor,
			"Accept":       wire.ContentTypeTensor,
		}))
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body)
			t.Fatalf("status %d: %s", resp.StatusCode, msg)
		}
		if ct := resp.Header.Get("Content-Type"); ct != wire.ContentTypeTensor {
			t.Fatalf("response Content-Type %q, want %q", ct, wire.ContentTypeTensor)
		}
		frame, err := wire.ReadTensor(resp.Body, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if frame.DType != wire.Float64 || len(frame.F64) != 6 {
			t.Fatalf("frame = %v %v", frame.Dims, frame.DType)
		}
		pr := api.PredictResponse{
			Model:  resp.Header.Get(api.HeaderModel),
			Params: api.Params{OmegaM: frame.F64[0], Sigma8: frame.F64[1], NS: frame.F64[2]},
		}
		for i := 0; i < 3; i++ {
			pr.Normalized[i] = float32(frame.F64[3+i])
		}
		got = append(got, pr)
	})

	if len(got) != 3 {
		t.Fatalf("collected %d answers, want 3", len(got))
	}
	wantParams := got[0].Params
	for i, pr := range got {
		if pr.Normalized != want {
			t.Errorf("path %d: normalized %v != reference %v (bit-identity broken)", i, pr.Normalized, want)
		}
		if pr.Params != wantParams {
			t.Errorf("path %d: params %+v != %+v", i, pr.Params, wantParams)
		}
		if pr.Model != DefaultModel {
			t.Errorf("path %d: model %q", i, pr.Model)
		}
	}
}

// TestV1ModelLifecycle drives the full lifecycle over HTTP: list, status,
// hot-load a second model, predict on it, unload it, and observe 404s.
func TestV1ModelLifecycle(t *testing.T) {
	_, srv, cleanup := v1TestServer(t, 63)
	defer cleanup()
	ckptB, refB := testCheckpoint(t, 64)

	// Baseline list: the default model, ready, with config + stats.
	resp := do(t, newReq(t, http.MethodGet, srv.URL+"/v1/models", nil, nil))
	var list api.ModelList
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Models) != 1 || list.Models[0].Name != DefaultModel ||
		list.Models[0].State != api.StateReady || list.Models[0].Replicas != 4 ||
		list.Models[0].Stats == nil {
		t.Fatalf("list = %+v", list)
	}
	if shape := list.Models[0].InputShape; len(shape) != 4 || shape[1] != testDim {
		t.Fatalf("input shape = %v", shape)
	}

	// Hot-load "b" from a checkpoint; 200 means ready.
	spec, _ := json.Marshal(api.LoadModelRequest{
		CheckpointPath: ckptB, InputDim: testDim, BaseChannels: testBase, Replicas: 2,
	})
	resp = do(t, newReq(t, http.MethodPut, srv.URL+"/v1/models/b", spec,
		map[string]string{"Content-Type": wire.ContentTypeJSON}))
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("PUT status %d: %s", resp.StatusCode, msg)
	}
	var ms api.ModelStatus
	if err := json.NewDecoder(resp.Body).Decode(&ms); err != nil {
		t.Fatal(err)
	}
	if ms.Name != "b" || ms.State != api.StateReady || ms.Replicas != 2 || ms.CheckpointPath != ckptB {
		t.Fatalf("PUT answer = %+v", ms)
	}

	// Predict on the hot-loaded model matches its reference network.
	s := testSamples(1, 65)[0]
	resp = do(t, newReq(t, http.MethodPost, srv.URL+"/v1/models/b:predict",
		tensorBody(t, testDim, s.Voxels),
		map[string]string{"Content-Type": wire.ContentTypeTensor}))
	var pr api.PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if want := forwardRef(refB, s); pr.Normalized != want {
		t.Fatalf("hot-loaded model predicted %v, want %v", pr.Normalized, want)
	}

	// Per-model status.
	resp = do(t, newReq(t, http.MethodGet, srv.URL+"/v1/models/b", nil, nil))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET model status %d", resp.StatusCode)
	}

	// Unload and observe it gone: status 404, predict 404, list without it.
	resp = do(t, newReq(t, http.MethodDelete, srv.URL+"/v1/models/b", nil, nil))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status %d", resp.StatusCode)
	}
	resp = do(t, newReq(t, http.MethodDelete, srv.URL+"/v1/models/b", nil, nil))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("second DELETE status %d, want 404", resp.StatusCode)
	}
	resp = do(t, newReq(t, http.MethodPost, srv.URL+"/v1/models/b:predict",
		tensorBody(t, testDim, s.Voxels),
		map[string]string{"Content-Type": wire.ContentTypeTensor}))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("predict after unload status %d, want 404", resp.StatusCode)
	}
}

// TestV1HotSwapAndUnloadWithInflight is the lifecycle acceptance test:
// PUT (hot-swap) and DELETE while a stream of predictions is in flight
// never fails a request — every answer is 200 from the old or new
// instance, or a retryable 503 during the handover window, never a 4xx/5xx.
func TestV1HotSwapAndUnloadWithInflight(t *testing.T) {
	reg, srv, cleanup := v1TestServer(t, 66)
	defer cleanup()
	ckptB, _ := testCheckpoint(t, 67)

	s := testSamples(1, 68)[0]
	body := tensorBody(t, testDim, s.Voxels)
	predictURL := srv.URL + "/v1/models/" + DefaultModel + ":predict"

	stop := make(chan struct{})
	type outcome struct {
		code int
		body string
	}
	results := make(chan outcome, 4096)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(predictURL, wire.ContentTypeTensor, bytes.NewReader(body))
				if err != nil {
					results <- outcome{code: -1, body: err.Error()}
					continue
				}
				msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
				resp.Body.Close()
				results <- outcome{code: resp.StatusCode, body: string(msg)}
			}
		}()
	}

	// Let traffic build, then hot-swap the serving checkpoint twice and
	// load/unload an unrelated model, all against live traffic.
	time.Sleep(20 * time.Millisecond)
	for i := 0; i < 2; i++ {
		spec, _ := json.Marshal(api.LoadModelRequest{
			CheckpointPath: ckptB, InputDim: testDim, BaseChannels: testBase, Replicas: 2,
		})
		resp := do(t, newReq(t, http.MethodPut, srv.URL+"/v1/models/"+DefaultModel, spec,
			map[string]string{"Content-Type": wire.ContentTypeJSON}))
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body)
			t.Fatalf("swap %d status %d: %s", i, resp.StatusCode, msg)
		}
		time.Sleep(10 * time.Millisecond)
	}
	spec, _ := json.Marshal(api.LoadModelRequest{InputDim: testDim, BaseChannels: testBase})
	if resp := do(t, newReq(t, http.MethodPut, srv.URL+"/v1/models/side", spec,
		map[string]string{"Content-Type": wire.ContentTypeJSON})); resp.StatusCode != http.StatusOK {
		t.Fatalf("side load status %d", resp.StatusCode)
	}
	if resp := do(t, newReq(t, http.MethodDelete, srv.URL+"/v1/models/side", nil, nil)); resp.StatusCode != http.StatusOK {
		t.Fatalf("side unload status %d", resp.StatusCode)
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(results)

	var ok, retryable int
	for r := range results {
		switch r.code {
		case http.StatusOK:
			ok++
		case http.StatusServiceUnavailable:
			// The handover window: displaced-instance stragglers get a
			// retryable 503 and resolve the new instance on retry.
			retryable++
		default:
			t.Fatalf("in-flight request failed hard with %d: %s", r.code, r.body)
		}
	}
	if ok == 0 {
		t.Fatal("no successful predictions during the lifecycle churn")
	}
	t.Logf("in-flight during churn: %d ok, %d retryable 503", ok, retryable)
	if !reg.Ready() {
		t.Fatal("registry not ready after churn")
	}
}

// TestMethodNotAllowed sweeps every route with wrong methods and checks
// both the 405 and its Allow header.
func TestMethodNotAllowed(t *testing.T) {
	_, srv, cleanup := v1TestServer(t, 69)
	defer cleanup()

	cases := []struct {
		method, path, allow string
	}{
		{http.MethodDelete, "/v1/models", "GET"},
		{http.MethodPost, "/v1/models", "GET"},
		{http.MethodPatch, "/v1/models/default", "GET, PUT, DELETE"},
		{http.MethodPost, "/v1/models/default", "GET, PUT, DELETE"},
		{http.MethodGet, "/v1/models/default:predict", "POST"},
		{http.MethodPut, "/v1/models/default:predict", "POST"},
		{http.MethodPost, "/healthz", "GET"},
		{http.MethodPost, "/stats", "GET"},
	}
	for _, tc := range cases {
		resp := do(t, newReq(t, tc.method, srv.URL+tc.path, nil, nil))
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", tc.method, tc.path, resp.StatusCode)
			continue
		}
		if got := resp.Header.Get("Allow"); got != tc.allow {
			t.Errorf("%s %s: Allow %q, want %q", tc.method, tc.path, got, tc.allow)
		}
		var env api.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error.Code != api.CodeMethodNotAllowed {
			t.Errorf("%s %s: envelope = %+v, err %v", tc.method, tc.path, env, err)
		}
	}
}

// TestUnknownRouteEnvelope checks that paths no route claims — the
// retired v0 /predict among them — answer 404 with the JSON envelope, not
// the mux's text/plain default.
func TestUnknownRouteEnvelope(t *testing.T) {
	_, srv, cleanup := v1TestServer(t, 73)
	defer cleanup()

	for _, route := range []string{"predict", "nope", "v1/nope"} {
		path := "/" + route
		for _, method := range []string{http.MethodGet, http.MethodPost} {
			resp := do(t, newReq(t, method, srv.URL+path, []byte(`{"voxels":[1]}`),
				map[string]string{"Content-Type": wire.ContentTypeJSON, api.HeaderRequestID: "rid-404"}))
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("%s %s: status %d, want 404", method, path, resp.StatusCode)
				continue
			}
			if ct := resp.Header.Get("Content-Type"); ct != wire.ContentTypeJSON {
				t.Errorf("%s %s: Content-Type %q, want %q", method, path, ct, wire.ContentTypeJSON)
			}
			var env api.ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil ||
				env.Error.Code != api.CodeNotFound || env.Error.RequestID != "rid-404" ||
				!strings.Contains(env.Error.Message, path) {
				t.Errorf("%s %s: envelope = %+v (err %v), want %s naming the path", method, path, env, err, api.CodeNotFound)
			}
		}
	}
}

// TestRequestIDPropagation checks the caller's X-Request-Id is echoed on
// success and error paths (header + envelope), and that one is minted
// when absent.
func TestRequestIDPropagation(t *testing.T) {
	_, srv, cleanup := v1TestServer(t, 70)
	defer cleanup()
	s := testSamples(1, 71)[0]

	body := tensorBody(t, testDim, s.Voxels)
	resp := do(t, newReq(t, http.MethodPost, srv.URL+"/v1/models/default:predict", body,
		map[string]string{"Content-Type": wire.ContentTypeTensor, api.HeaderRequestID: "req-abc-123"}))
	if got := resp.Header.Get(api.HeaderRequestID); got != "req-abc-123" {
		t.Errorf("echoed request id %q, want req-abc-123", got)
	}
	var pr api.PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil || pr.RequestID != "req-abc-123" {
		t.Errorf("response request_id %q (err %v)", pr.RequestID, err)
	}

	resp = do(t, newReq(t, http.MethodGet, srv.URL+"/v1/models/nope", nil,
		map[string]string{api.HeaderRequestID: "req-err-7"}))
	var env api.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.RequestID != "req-err-7" || env.Error.Code != api.CodeNotFound {
		t.Errorf("error envelope = %+v", env)
	}

	resp = do(t, newReq(t, http.MethodGet, srv.URL+"/v1/models", nil, nil))
	if resp.Header.Get(api.HeaderRequestID) == "" {
		t.Error("no request id minted when caller sent none")
	}
}

// TestV1PredictBadInput checks the predict error envelope: malformed
// frames, wrong dtype, wrong dims, wrong voxel count, bad media type.
func TestV1PredictBadInput(t *testing.T) {
	_, srv, cleanup := v1TestServer(t, 72)
	defer cleanup()
	u := srv.URL + "/v1/models/default:predict"

	expect := func(t *testing.T, resp *http.Response, status int, code string) {
		t.Helper()
		if resp.StatusCode != status {
			msg, _ := io.ReadAll(resp.Body)
			t.Fatalf("status %d, want %d: %s", resp.StatusCode, status, msg)
		}
		var env api.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error.Code != code {
			t.Fatalf("envelope = %+v (err %v), want code %s", env, err, code)
		}
	}

	t.Run("garbage frame", func(t *testing.T) {
		resp := do(t, newReq(t, http.MethodPost, u, []byte("not a frame"),
			map[string]string{"Content-Type": wire.ContentTypeTensor}))
		expect(t, resp, http.StatusBadRequest, api.CodeInvalidArgument)
	})
	t.Run("float64 voxels", func(t *testing.T) {
		frame, err := wire.FromFloat64([]int{1, 2, 2, 2}, make([]float64, 8))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		frame.WriteTo(&buf)
		resp := do(t, newReq(t, http.MethodPost, u, buf.Bytes(),
			map[string]string{"Content-Type": wire.ContentTypeTensor}))
		expect(t, resp, http.StatusBadRequest, api.CodeInvalidArgument)
	})
	t.Run("wrong rank", func(t *testing.T) {
		frame, err := wire.FromFloat32([]int{8}, make([]float32, 8))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		frame.WriteTo(&buf)
		resp := do(t, newReq(t, http.MethodPost, u, buf.Bytes(),
			map[string]string{"Content-Type": wire.ContentTypeTensor}))
		expect(t, resp, http.StatusBadRequest, api.CodeInvalidArgument)
	})
	t.Run("wrong voxel count", func(t *testing.T) {
		resp := do(t, newReq(t, http.MethodPost, u, tensorBody(t, 4, make([]float32, 64)),
			map[string]string{"Content-Type": wire.ContentTypeTensor}))
		expect(t, resp, http.StatusBadRequest, api.CodeInvalidArgument)
	})
	t.Run("bad media type", func(t *testing.T) {
		resp := do(t, newReq(t, http.MethodPost, u, []byte("<xml/>"),
			map[string]string{"Content-Type": "text/xml"}))
		expect(t, resp, http.StatusUnsupportedMediaType, api.CodeUnsupportedMedia)
	})
	t.Run("bad json", func(t *testing.T) {
		resp := do(t, newReq(t, http.MethodPost, u, []byte("{oops"),
			map[string]string{"Content-Type": wire.ContentTypeJSON}))
		expect(t, resp, http.StatusBadRequest, api.CodeInvalidArgument)
	})
	t.Run("bad load spec", func(t *testing.T) {
		resp := do(t, newReq(t, http.MethodPut, srv.URL+"/v1/models/x", []byte(`{"input_dim":0}`),
			map[string]string{"Content-Type": wire.ContentTypeJSON}))
		expect(t, resp, http.StatusBadRequest, api.CodeInvalidArgument)
	})
	t.Run("unknown route", func(t *testing.T) {
		resp := do(t, newReq(t, http.MethodGet, srv.URL+"/v1/models/a/b/c", nil, nil))
		expect(t, resp, http.StatusNotFound, api.CodeNotFound)
	})
	t.Run("failed put leaves no tombstone", func(t *testing.T) {
		resp := do(t, newReq(t, http.MethodPut, srv.URL+"/v1/models/typo",
			[]byte(`{"input_dim":8,"base_channels":2,"checkpoint_path":"/nonexistent.ckpt"}`),
			map[string]string{"Content-Type": wire.ContentTypeJSON}))
		expect(t, resp, http.StatusBadRequest, api.CodeInvalidArgument)
		// The rejected PUT must not mark the node unready or leave a
		// phantom entry behind.
		if resp := do(t, newReq(t, http.MethodGet, srv.URL+"/healthz", nil, nil)); resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz after rejected PUT = %d, want 200", resp.StatusCode)
		}
		if resp := do(t, newReq(t, http.MethodGet, srv.URL+"/v1/models/typo", nil, nil)); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET after rejected PUT = %d, want 404", resp.StatusCode)
		}
	})
}

// TestHealthzReadiness drives /healthz through the lifecycle: 503 on an
// empty registry, 503 while a model is loading or failed, 200 only when
// every configured model is ready.
func TestHealthzReadiness(t *testing.T) {
	reg := NewRegistry()
	defer reg.Close()
	srv := httptest.NewServer(NewServer(reg, "").Handler())
	defer srv.Close()

	health := func(t *testing.T) (int, api.HealthResponse) {
		t.Helper()
		resp := do(t, newReq(t, http.MethodGet, srv.URL+"/healthz", nil, nil))
		var hr api.HealthResponse
		if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, hr
	}

	// Empty registry: not ready.
	if code, hr := health(t); code != http.StatusServiceUnavailable || hr.Status != "unavailable" {
		t.Fatalf("empty registry healthz = %d %+v", code, hr)
	}

	// A load in progress (marked the way LoadAsync does before its build
	// completes): still 503, with the model reported as loading.
	pendingEntry, err := reg.beginLoad("pending")
	if err != nil {
		t.Fatal(err)
	}
	code, hr := health(t)
	if code != http.StatusServiceUnavailable || len(hr.Models) != 1 ||
		hr.Models[0].Name != "pending" || hr.Models[0].State != api.StateLoading {
		t.Fatalf("loading healthz = %d %+v", code, hr)
	}
	// The pending load completes: ready flips, and a model-state probe on
	// the predict route during the window would have said 503 (see
	// modelMiss) rather than 404.
	resp := do(t, newReq(t, http.MethodPost, srv.URL+"/v1/models/pending:predict",
		[]byte(`{"voxels":[]}`), map[string]string{"Content-Type": wire.ContentTypeJSON}))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("predict on loading model = %d, want 503", resp.StatusCode)
	}
	ckpt, _ := testCheckpoint(t, 73)
	cfg := testModelConfig(ckpt)
	cfg.Name = "pending"
	if _, err := reg.finishLoad(cfg, pendingEntry, true); err != nil {
		t.Fatal(err)
	}
	if code, hr := health(t); code != http.StatusOK || hr.Status != "ok" {
		t.Fatalf("ready healthz = %d %+v", code, hr)
	}
	if !reg.Ready() {
		t.Fatal("Ready() false with every model ready")
	}

	// A failed *synchronous* load (the PUT path) hands its error to the
	// caller and leaves no tombstone: readiness is untouched.
	bad := testModelConfig("/nonexistent/model.ckpt")
	bad.Name = "broken"
	if _, err := reg.Load(bad); err == nil {
		t.Fatal("load of missing checkpoint succeeded")
	}
	if code, hr := health(t); code != http.StatusOK || len(hr.Models) != 1 {
		t.Fatalf("healthz after failed sync load = %d %+v (tombstone leaked)", code, hr)
	}

	// A failed *asynchronous* load (daemon startup) has no caller waiting,
	// so it must stay visible: 503 with the error surfaced until cleared.
	if err := <-reg.LoadAsync(bad); err == nil {
		t.Fatal("async load of missing checkpoint succeeded")
	}
	code, hr = health(t)
	if code != http.StatusServiceUnavailable || len(hr.Models) != 2 {
		t.Fatalf("failed-model healthz = %d %+v", code, hr)
	}
	for _, mh := range hr.Models {
		if mh.Name == "broken" && (mh.State != api.StateFailed || mh.Error == "") {
			t.Fatalf("broken model health = %+v", mh)
		}
	}
	// Unloading the broken entry restores readiness.
	if !reg.Unload("broken") {
		t.Fatal("Unload(broken) found nothing")
	}
	if code, _ := health(t); code != http.StatusOK {
		t.Fatalf("healthz after clearing failed entry = %d", code)
	}
}

// TestOrphanedLoadDoesNotDisplace pins the unload-then-reload race: a
// load still building when its entry is unloaded and the name reloaded
// must tear its instance down, not displace the newer model or corrupt
// the new entry's load accounting.
func TestOrphanedLoadDoesNotDisplace(t *testing.T) {
	ckptA, _ := testCheckpoint(t, 76)
	ckptB, refB := testCheckpoint(t, 77)
	reg := NewRegistry()
	defer reg.Close()

	// Load A begins (entry e1 registered, build "in flight"). beginLoad is
	// called with the normalized name, as Load does.
	cfgA := testModelConfig(ckptA)
	cfgA.Name = DefaultModel
	e1, err := reg.beginLoad(cfgA.Name)
	if err != nil {
		t.Fatal(err)
	}
	// ...the operator deletes the name and reloads it with checkpoint B...
	if !reg.Unload(cfgA.Name) {
		t.Fatal("unload found no entry")
	}
	if _, err := reg.Load(testModelConfig(ckptB)); err != nil {
		t.Fatal(err)
	}
	// ...then A's build finally completes. It must be orphaned.
	if _, err := reg.finishLoad(cfgA, e1, false); err != ErrClosed {
		t.Fatalf("orphaned load finished with %v, want ErrClosed", err)
	}
	s := testSamples(1, 78)[0]
	m, ok := reg.Get(cfgA.Name)
	if !ok {
		t.Fatal("model B vanished")
	}
	pred, err := m.Predict(s.Voxels)
	if err != nil || pred.Normalized != forwardRef(refB, s) {
		t.Fatalf("serving model is not B after orphaned A completed: %v, %v", pred, err)
	}
	info, ok := reg.InfoFor(cfgA.Name)
	if !ok || info.State != StateReady {
		t.Fatalf("entry state = %+v, %v", info, ok)
	}
	if !reg.Ready() {
		t.Fatal("registry unready after orphaned load resolved")
	}
}

// TestV1PayloadTooLarge maps both oversized frames (from the header) and
// oversized JSON bodies to 413.
func TestV1PayloadTooLarge(t *testing.T) {
	_, srv, cleanup := v1TestServer(t, 74)
	defer cleanup()

	// A frame whose header promises more than maxBodyBytes: rejected from
	// the 16 header bytes alone, without the client sending the payload.
	frame := make([]byte, 16)
	copy(frame, []byte("CFT1"))
	frame[4] = wire.Version
	frame[5] = byte(wire.Float32)
	frame[6] = 2 // ndims
	frame[8] = 0xff
	frame[9] = 0xff
	frame[10] = 0xff
	frame[11] = 0x3f // dim0 ~ 2^30
	frame[12] = 0xff
	frame[13] = 0x3f // dim1 ~ 2^14
	resp := do(t, newReq(t, http.MethodPost, srv.URL+"/v1/models/default:predict", frame,
		map[string]string{"Content-Type": wire.ContentTypeTensor}))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("oversized frame status %d, want 413: %s", resp.StatusCode, msg)
	}
	var env api.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error.Code != api.CodePayloadTooLarge {
		t.Fatalf("envelope = %+v (err %v)", env, err)
	}
}

// TestStatsRequestID spot-checks that observability routes carry the
// request id too (every response is traceable, not just predictions).
func TestStatsRequestID(t *testing.T) {
	_, srv, cleanup := v1TestServer(t, 75)
	defer cleanup()
	for _, path := range []string{"/stats", "/healthz", "/v1/models"} {
		resp := do(t, newReq(t, http.MethodGet, srv.URL+path, nil,
			map[string]string{api.HeaderRequestID: "trace-" + path}))
		if got := resp.Header.Get(api.HeaderRequestID); got != "trace-"+path {
			t.Errorf("%s: request id %q", path, got)
		}
	}
}
