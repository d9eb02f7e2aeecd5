// Package serve is the concurrent batched inference subsystem: a model
// registry with hot-swap and runtime load/unload, per-model replica pools
// of weight-sharing network clones, a dynamic micro-batcher, and a
// stdlib-only HTTP API — the path from the paper's trained network to the
// ROADMAP's "serve heavy traffic" north star.
//
// The HTTP surface is the versioned v1 API (see internal/serve/api):
// predictions via POST /v1/models/{name}:predict with content-negotiated
// encodings (JSON, or the internal/serve/wire binary tensor frame that
// kills the multi-MB JSON encode/decode on the hot path), model lifecycle
// via GET/PUT/DELETE on /v1/models, readiness via GET /healthz (503 until
// every configured model is ready), and counters via GET /stats. Unknown
// paths answer 404 with the same JSON error envelope as every other route.
//
// Request flow: a predict handler decodes a voxel volume, the model's
// batcher coalesces it with its neighbours (up to MaxBatch requests or
// MaxDelay, whichever first), a dispatch goroutine runs the whole
// micro-batch as one batched forward pass (nn.InferBatch) on a free
// replica, and the handler denormalizes the network output through the
// priors. The replica pool bounds concurrent forward passes; everything
// else queues.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"mime"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/cosmo"
	"repro/internal/nn"
	"repro/internal/obsv"
	"repro/internal/serve/api"
	"repro/internal/serve/wire"
)

// maxBodyBytes bounds predict request bodies: a paper-size 128³ float
// volume is ~2M voxels, which JSON-encodes to tens of MB (the binary
// tensor frame carries the same volume in 4 bytes per voxel).
const maxBodyBytes = 256 << 20

// Server exposes a Registry over HTTP.
type Server struct {
	reg     *Registry
	http    *http.Server
	start   time.Time
	metrics *obsv.MetricsRegistry
}

// NewServer wraps reg in an HTTP server bound to addr.
func NewServer(reg *Registry, addr string) *Server {
	s := &Server{reg: reg, start: time.Now()}
	s.metrics = newMetricsRegistry(reg, s.start)
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/models", s.handleModels)
	mux.HandleFunc("/v1/models/", s.handleModelItem)
	mux.HandleFunc("/v1/trace", s.handleTrace)
	mux.HandleFunc("/v1/roofline", s.handleRoofline)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/stats", s.handleStats)
	mux.Handle("/metrics", s.metrics.Handler())
	mux.HandleFunc("/", api.NotFound)
	s.http = &http.Server{
		Addr:    addr,
		Handler: mux,
		// Bound header arrival and idle keep-alives so stalled clients
		// (slowloris) cannot pin handler goroutines forever. No ReadTimeout:
		// large predict bodies on slow links are legitimate.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	return s
}

// Handler returns the route mux (for httptest and in-process use).
func (s *Server) Handler() http.Handler { return s.http.Handler }

// ListenAndServe blocks serving requests; it returns http.ErrServerClosed
// after Shutdown.
func (s *Server) ListenAndServe() error { return s.http.ListenAndServe() }

// Serve blocks serving requests on an existing listener.
func (s *Server) Serve(l net.Listener) error { return s.http.Serve(l) }

// Shutdown gracefully stops the server: the listener closes, in-flight
// requests drain through their micro-batches, and then the models are torn
// down. The whole drain is bounded by ctx — on expiry Shutdown returns
// ctx.Err() with the teardown still running in the background, so a daemon
// honoring a drain budget can exit instead of hanging on a wedged replica.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.http.Shutdown(ctx)
	done := make(chan struct{})
	go func() {
		s.reg.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		if err == nil {
			err = ctx.Err()
		}
	}
	return err
}

// handleModels is the /v1/models collection: GET lists every entry with
// status, config, and metrics.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	rid := api.RequestID(w, r)
	if r.Method != http.MethodGet {
		api.MethodNotAllowed(w, rid, http.MethodGet)
		return
	}
	infos := s.reg.Info()
	list := api.ModelList{Models: make([]api.ModelStatus, 0, len(infos))}
	for _, info := range infos {
		list.Models = append(list.Models, modelStatus(info))
	}
	api.WriteJSON(w, http.StatusOK, list)
}

// handleModelItem routes /v1/models/{name} (GET status, PUT load/swap,
// DELETE unload) and /v1/models/{name}:predict (POST).
func (s *Server) handleModelItem(w http.ResponseWriter, r *http.Request) {
	rid := api.RequestID(w, r)
	rest := strings.TrimPrefix(r.URL.Path, "/v1/models/")
	if rest == "" || strings.Contains(rest, "/") {
		api.WriteAPIError(w, rid, http.StatusNotFound, api.CodeNotFound, "no such route: "+r.URL.Path)
		return
	}
	if name, ok := strings.CutSuffix(rest, ":predict"); ok {
		if name == "" {
			api.WriteAPIError(w, rid, http.StatusNotFound, api.CodeNotFound, "missing model name")
			return
		}
		if r.Method != http.MethodPost {
			api.MethodNotAllowed(w, rid, http.MethodPost)
			return
		}
		s.predict(w, r, rid, name)
		return
	}
	switch r.Method {
	case http.MethodGet:
		s.getModel(w, rid, rest)
	case http.MethodPut:
		s.loadModel(w, r, rid, rest)
	case http.MethodDelete:
		s.unloadModel(w, rid, rest)
	default:
		api.MethodNotAllowed(w, rid, http.MethodGet, http.MethodPut, http.MethodDelete)
	}
}

// predict decodes a voxel volume per the request Content-Type, scores it
// on the named model, and answers per the Accept header.
func (s *Server) predict(w http.ResponseWriter, r *http.Request, rid, name string) {
	m, ok := s.reg.Get(name)
	if !ok {
		s.modelMiss(w, rid, name)
		return
	}
	voxels, decOK := s.decodeVoxels(w, r, rid)
	if !decOK {
		return
	}
	pred, err := m.Predict(voxels)
	if err != nil {
		writePredictError(w, rid, err)
		return
	}
	resp := api.PredictResponse{
		Model:      m.Name(),
		Params:     toParams(pred.Params),
		Normalized: pred.Normalized,
		BatchSize:  pred.BatchSize,
		LatencyMs:  float64(pred.Latency) / 1e6,
		RequestID:  rid,
	}
	if acceptsTensor(r) {
		writeTensorPrediction(w, resp)
		return
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

// modelMiss distinguishes "never heard of it" (404) from "configured but
// not serving yet / anymore" (503, retryable): a client polling a model
// that is still loading should back off, not give up.
func (s *Server) modelMiss(w http.ResponseWriter, rid, name string) {
	info, ok := s.reg.InfoFor(name)
	if !ok {
		api.WriteAPIError(w, rid, http.StatusNotFound, api.CodeNotFound, "unknown model "+name)
		return
	}
	msg := fmt.Sprintf("model %s is %s", name, info.State)
	if info.Err != nil {
		msg += ": " + info.Err.Error()
	}
	api.WriteAPIError(w, rid, http.StatusServiceUnavailable, api.CodeUnavailable, msg)
}

// decodeVoxels reads the request body as either a binary tensor frame or
// the JSON PredictRequest, per Content-Type. On failure it writes the
// error response and reports false.
func (s *Server) decodeVoxels(w http.ResponseWriter, r *http.Request, rid string) ([]float32, bool) {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	ct := r.Header.Get("Content-Type")
	mediaType := ct
	if ct != "" {
		if mt, _, err := mime.ParseMediaType(ct); err == nil {
			mediaType = mt
		}
	}
	switch mediaType {
	case wire.ContentTypeTensor:
		t, err := wire.ReadTensor(body, maxBodyBytes)
		if err != nil {
			writeWireError(w, rid, err)
			return nil, false
		}
		if t.DType != wire.Float32 {
			api.WriteAPIError(w, rid, http.StatusBadRequest, api.CodeInvalidArgument,
				"voxel tensors must be float32, got "+t.DType.String())
			return nil, false
		}
		// [C D H W] or [D H W] (implying one channel); the model's own
		// shape check rejects mismatched element counts.
		if len(t.Dims) != 3 && len(t.Dims) != 4 {
			api.WriteAPIError(w, rid, http.StatusBadRequest, api.CodeInvalidArgument,
				fmt.Sprintf("voxel tensors must be [C D H W] or [D H W], got %d dims", len(t.Dims)))
			return nil, false
		}
		return t.F32, true
	case wire.ContentTypeJSON, "":
		var req api.PredictRequest
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			writeBodyError(w, rid, err)
			return nil, false
		}
		return req.Voxels, true
	default:
		api.WriteAPIError(w, rid, http.StatusUnsupportedMediaType, api.CodeUnsupportedMedia,
			"unsupported Content-Type "+ct+"; use "+wire.ContentTypeJSON+" or "+wire.ContentTypeTensor)
		return nil, false
	}
}

// acceptsTensor reports whether the client asked for a binary response.
// Only an explicit Accept of the tensor content type selects it; default
// and */* stay JSON, so curl and browsers see text.
func acceptsTensor(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), wire.ContentTypeTensor)
}

// writeTensorPrediction encodes the [2 3] float64 response frame (row 0
// the denormalized params, row 1 the normalized outputs — float32 widened
// to float64, which is exact, so binary answers stay bit-comparable to
// JSON ones) with the scalar fields in headers.
func writeTensorPrediction(w http.ResponseWriter, resp api.PredictResponse) {
	t, err := wire.FromFloat64(api.PredictTensorDims, []float64{
		resp.Params.OmegaM, resp.Params.Sigma8, resp.Params.NS,
		float64(resp.Normalized[0]), float64(resp.Normalized[1]), float64(resp.Normalized[2]),
	})
	if err != nil {
		api.WriteAPIError(w, resp.RequestID, http.StatusInternalServerError, api.CodeInternal, err.Error())
		return
	}
	h := w.Header()
	h.Set("Content-Type", wire.ContentTypeTensor)
	h.Set("Content-Length", strconv.Itoa(t.EncodedSize()))
	h.Set(api.HeaderModel, resp.Model)
	h.Set(api.HeaderBatchSize, strconv.Itoa(resp.BatchSize))
	h.Set(api.HeaderLatencyMs, strconv.FormatFloat(resp.LatencyMs, 'g', -1, 64))
	w.WriteHeader(http.StatusOK)
	_, _ = t.WriteTo(w)
}

// writeWireError maps a tensor-frame decode failure: transport size caps
// to 413, everything else (malformed frames included) to 400.
func writeWireError(w http.ResponseWriter, rid string, err error) {
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig), errors.Is(err, wire.ErrTooLarge):
		api.WriteAPIError(w, rid, http.StatusRequestEntityTooLarge, api.CodePayloadTooLarge, err.Error())
	default:
		api.WriteAPIError(w, rid, http.StatusBadRequest, api.CodeInvalidArgument, err.Error())
	}
}

// writeBodyError maps a JSON body decode failure the same way.
func writeBodyError(w http.ResponseWriter, rid string, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		api.WriteAPIError(w, rid, http.StatusRequestEntityTooLarge, api.CodePayloadTooLarge, err.Error())
		return
	}
	api.WriteAPIError(w, rid, http.StatusBadRequest, api.CodeInvalidArgument, "decoding request: "+err.Error())
}

// writePredictError maps Model.Predict failures onto the envelope.
func writePredictError(w http.ResponseWriter, rid string, err error) {
	switch {
	case errors.Is(err, ErrClosed):
		// The model was hot-swapped, unloaded, or the server is draining;
		// the client should retry (and will resolve the new state).
		api.WriteAPIError(w, rid, http.StatusServiceUnavailable, api.CodeUnavailable, err.Error())
	case errors.Is(err, ErrBadRequest):
		api.WriteAPIError(w, rid, http.StatusBadRequest, api.CodeInvalidArgument, err.Error())
	default:
		api.WriteAPIError(w, rid, http.StatusInternalServerError, api.CodeInternal, err.Error())
	}
}

// getModel answers GET /v1/models/{name}.
func (s *Server) getModel(w http.ResponseWriter, rid, name string) {
	info, ok := s.reg.InfoFor(name)
	if !ok {
		api.WriteAPIError(w, rid, http.StatusNotFound, api.CodeNotFound, "unknown model "+name)
		return
	}
	api.WriteJSON(w, http.StatusOK, modelStatus(info))
}

// loadModel answers PUT /v1/models/{name}: build the requested topology,
// load the checkpoint, build the replicas, and atomically install the new
// instance — the existing instance (if any) keeps serving until the swap
// and then drains in the background, so in-flight requests are never cut.
// The call is synchronous: a 200 means the model is ready.
func (s *Server) loadModel(w http.ResponseWriter, r *http.Request, rid, name string) {
	var req api.LoadModelRequest
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeBodyError(w, rid, err)
		return
	}
	if req.InputDim < 1 {
		api.WriteAPIError(w, rid, http.StatusBadRequest, api.CodeInvalidArgument,
			"input_dim is required (the voxel edge length the checkpoint was trained with)")
		return
	}
	base := req.BaseChannels
	if base < 1 {
		base = 4
	}
	cfg := ModelConfig{
		Name: name,
		Topology: nn.TopologyConfig{
			InputDim:      req.InputDim,
			InputChannels: req.InputChannels,
			BaseChannels:  base,
			Seed:          1, // any fixed seed: the checkpoint overrides initialization
		},
		CheckpointPath:    req.CheckpointPath,
		Replicas:          req.Replicas,
		WorkersPerReplica: req.WorkersPerReplica,
		MaxBatch:          req.MaxBatch,
		MaxDelay:          time.Duration(req.MaxDelayMs * float64(time.Millisecond)),
		Trace:             req.Trace,
	}
	if _, err := s.reg.Load(cfg); err != nil {
		switch {
		case errors.Is(err, ErrClosed):
			api.WriteAPIError(w, rid, http.StatusServiceUnavailable, api.CodeUnavailable, err.Error())
		default:
			// A bad topology or unreadable checkpoint is the caller's
			// input; the previous instance (if any) is still serving.
			api.WriteAPIError(w, rid, http.StatusBadRequest, api.CodeInvalidArgument, err.Error())
		}
		return
	}
	info, ok := s.reg.InfoFor(name)
	if !ok {
		// Unloaded between install and status read; report the race as gone.
		api.WriteAPIError(w, rid, http.StatusNotFound, api.CodeNotFound, "model "+name+" unloaded concurrently")
		return
	}
	api.WriteJSON(w, http.StatusOK, modelStatus(info))
}

// unloadModel answers DELETE /v1/models/{name}: the entry disappears from
// the registry immediately, in-flight requests finish on the removed
// instance, and its replicas drain in the background.
func (s *Server) unloadModel(w http.ResponseWriter, rid, name string) {
	if !s.reg.Unload(name) {
		api.WriteAPIError(w, rid, http.StatusNotFound, api.CodeNotFound, "unknown model "+name)
		return
	}
	api.WriteJSON(w, http.StatusOK, api.UnloadModelResponse{
		Model: name, Status: "unloading", RequestID: rid,
	})
}

// handleHealthz is the readiness probe: 200 only when every configured
// model is ready (checkpoint loaded, replicas built), 503 otherwise —
// including an empty registry, so a daemon that loads asynchronously
// reports unready from its very first poll.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rid := api.RequestID(w, r)
	if r.Method != http.MethodGet {
		api.MethodNotAllowed(w, rid, http.MethodGet)
		return
	}
	infos := s.reg.Info()
	resp := api.HealthResponse{
		Status:  "ok",
		Models:  make([]api.ModelHealth, 0, len(infos)),
		UptimeS: time.Since(s.start).Seconds(),
	}
	for _, info := range infos {
		mh := api.ModelHealth{Name: info.Name, State: string(info.State)}
		if info.Err != nil {
			mh.Error = info.Err.Error()
		}
		resp.Models = append(resp.Models, mh)
	}
	// The 200/503 decision is the registry's readiness rule, not a second
	// copy of it here; the per-model list above is the diagnosis.
	code := http.StatusOK
	if !s.reg.Ready() {
		resp.Status = "unavailable"
		code = http.StatusServiceUnavailable
	}
	api.WriteJSON(w, code, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	rid := api.RequestID(w, r)
	if r.Method != http.MethodGet {
		api.MethodNotAllowed(w, rid, http.MethodGet)
		return
	}
	resp := api.StatsResponse{
		UptimeS: time.Since(s.start).Seconds(),
		Models:  make(map[string]api.ModelStats),
	}
	for _, info := range s.reg.Info() {
		if info.Model != nil {
			ms := api.ModelStats{
				Stats:    info.Model.Stats(),
				Replicas: info.Model.Replicas(),
			}
			if fwd, layers, ok := info.Model.TraceSnapshot(); ok {
				ms.Forward, ms.Layers = &fwd, layers
			}
			resp.Models[info.Name] = ms
		}
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

// handleTrace answers GET /v1/trace: every traced model's per-layer
// forward breakdown, aggregated across its replica pool since load (or
// the last counter reset). Models loaded without ModelConfig.Trace are
// absent; Enabled is false when none trace.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	rid := api.RequestID(w, r)
	if r.Method != http.MethodGet {
		api.MethodNotAllowed(w, rid, http.MethodGet)
		return
	}
	resp := api.TraceResponse{UptimeS: time.Since(s.start).Seconds()}
	for _, info := range s.reg.Info() {
		if info.Model == nil {
			continue
		}
		fwd, layers, ok := info.Model.TraceSnapshot()
		if !ok {
			continue
		}
		resp.Enabled = true
		resp.Models = append(resp.Models, api.ModelTrace{
			Model:   info.Name,
			Forward: fwd,
			Layers:  layers,
		})
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

// handleRoofline answers GET /v1/roofline: every traced model's per-layer
// GFLOP/s attribution — the analytic FLOP counts joined with the trace
// spans (obsv.BuildRoofline). Models loaded without ModelConfig.Trace are
// absent; Enabled is false when none trace.
func (s *Server) handleRoofline(w http.ResponseWriter, r *http.Request) {
	rid := api.RequestID(w, r)
	if r.Method != http.MethodGet {
		api.MethodNotAllowed(w, rid, http.MethodGet)
		return
	}
	resp := api.RooflineResponse{UptimeS: time.Since(s.start).Seconds()}
	for _, info := range s.reg.Info() {
		if info.Model == nil {
			continue
		}
		layers, samples, ok := info.Model.Roofline()
		if !ok {
			continue
		}
		resp.Enabled = true
		resp.Models = append(resp.Models, api.ModelRoofline{
			Model:   info.Name,
			Samples: samples,
			Layers:  layers,
		})
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

// MetricsRegistry returns the server's scrape registry, so a daemon can
// mount the same families on its -debug-addr listener.
func (s *Server) MetricsRegistry() *obsv.MetricsRegistry { return s.metrics }

// modelStatus converts a registry snapshot into the v1 DTO.
func modelStatus(info ModelInfo) api.ModelStatus {
	ms := api.ModelStatus{
		Name:  info.Name,
		State: string(info.State),
	}
	if info.Err != nil {
		ms.Error = info.Err.Error()
	}
	if info.Model != nil {
		ms.InputShape = []int(info.Model.InputShape())
		ms.Replicas = info.Model.Replicas()
		ms.WorkersPerReplica = info.Config.WorkersPerReplica
		ms.MaxBatch = info.Config.MaxBatch
		ms.MaxDelayMs = float64(info.Config.MaxDelay) / 1e6
		ms.CheckpointPath = info.Config.CheckpointPath
		st := info.Model.Stats()
		ms.Stats = &st
	}
	return ms
}

func toParams(p cosmo.Params) api.Params {
	return api.Params{OmegaM: p.OmegaM, Sigma8: p.Sigma8, NS: p.NS}
}
