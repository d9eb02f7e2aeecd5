// Package gateway is the horizontal serving tier: one v1-compatible HTTP
// endpoint fronting N independent cosmoflow-serve backends, so serving
// throughput scales with process count the way internal/dist made
// training scale. It is the dispatcher half of a dispatcher/worker split:
// the gateway owns placement, health, retry, and reassembly; backends own
// compute.
//
// Core pieces:
//
//   - Backend pool (pool.go): per-backend pooled clients, periodic
//     /healthz + GET /v1/models probes, and a state machine
//     (joining → ready ⇄ degraded → ejected → re-admitted) with
//     circuit-breaker ejection after consecutive transport failures.
//   - Router (router.go): pluggable policies — least-outstanding-requests
//     (default) and consistent-hash-by-model — over the per-model
//     placement discovered from each backend's GET /v1/models.
//   - Retry: predict is idempotent, so connect/5xx failures retry on a
//     backend not yet tried; with the pool's circuit-breaker ejection it
//     is the gateway's only failover mechanism.
//   - Scatter-gather: a batch predict ([N C D H W] binary frame, or JSON
//     {"batch": [...]}) splits across ready backends and reassembles in
//     input order, bit-identical to sending each volume directly.
//   - Lifecycle fan-out: PUT/DELETE /v1/models/{name} broadcast to every
//     reachable backend with per-backend result aggregation.
//
// Proxied predict responses stream through untouched (status, headers,
// body bytes), plus an X-Cosmoflow-Backend header naming the member that
// served them — bit-identity through the gateway is a pass-through
// property, not a re-encoding proof.
package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obsv"
	"repro/internal/serve/api"
	"repro/internal/serve/client"
	"repro/internal/serve/wire"
)

// maxBodyBytes mirrors the backend cap so the gateway rejects oversized
// bodies itself instead of buffering them and then being refused.
const maxBodyBytes = 256 << 20

// Config parameterizes a Gateway. Zero values take the documented
// defaults.
type Config struct {
	// Backends are the cosmoflow-serve base URLs to front: the fixed pool
	// membership. At least one is required.
	Backends []string
	// Policy is the routing policy: PolicyLeastOutstanding (default) or
	// PolicyConsistentHash.
	Policy string
	// ProbeInterval is the health/placement probe period (default 500ms).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round trip (default 2s).
	ProbeTimeout time.Duration
	// BackendTimeout bounds one proxied request round trip (default 60s).
	BackendTimeout time.Duration
	// EjectAfter is the consecutive transport-failure count that opens a
	// backend's circuit (default 3).
	EjectAfter int
	// ReadmitAfter is the cooldown before an ejected backend is probed
	// again for re-admission (default 2s).
	ReadmitAfter time.Duration
	// Retries is how many additional backends a failed predict tries
	// (default 2; negative disables failover entirely).
	Retries int
	// Trace opts the gateway into per-request phase attribution: each
	// predict's queue wait / upstream / gather split is retained in a
	// recent-request ring keyed by X-Request-Id, and per-backend upstream
	// spans accumulate — both served by GET /v1/trace. Off by default; the
	// untraced proxy path pays one nil check per request.
	Trace bool
	// Tenants seeds the API-key table. Empty leaves the data plane open
	// (every request is the anonymous standard-class tenant); the first
	// tenant — seeded here or via PUT /v1/admin/tenants — turns
	// authentication on.
	Tenants []api.Tenant
	// AdminKey guards /v1/admin/*. Empty leaves the admin plane open.
	AdminKey string
	// Admission bounds concurrent work and the priority queues in front of
	// it; zero values take AdmissionConfig's defaults.
	Admission AdmissionConfig
}

func (cfg *Config) applyDefaults() {
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 500 * time.Millisecond
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.BackendTimeout <= 0 {
		cfg.BackendTimeout = 60 * time.Second
	}
	if cfg.EjectAfter <= 0 {
		cfg.EjectAfter = 3
	}
	if cfg.ReadmitAfter <= 0 {
		cfg.ReadmitAfter = 2 * time.Second
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	} else if cfg.Retries == 0 {
		cfg.Retries = 2
	}
}

// counters are the gateway's own routing metrics.
type counters struct {
	requests  atomic.Int64
	errors    atomic.Int64
	retries   atomic.Int64
	scattered atomic.Int64
}

// Gateway routes v1 traffic across a backend pool.
type Gateway struct {
	cfg    Config
	pool   *Pool
	policy Policy
	// spread is the scatter path's per-volume picker: always
	// least-outstanding, whatever the configured policy — the point of a
	// scatter is to use the whole pool, which consistent hashing would
	// defeat by mapping every sub-volume of one model to one member.
	spread Policy
	ctr    counters
	start  time.Time

	// Multi-tenant front door: API-key table and bounded admission gate.
	tenants *tenantTable
	adm     *admission

	// reqLog retains recent per-request phase breakdowns and upRec the
	// per-backend upstream spans; both nil unless Config.Trace.
	reqLog *obsv.RequestLog
	upRec  *obsv.Recorder

	// metrics is the GET /metrics scrape registry over the counters above,
	// built lazily (see MetricsRegistry in metrics.go).
	metricsOnce sync.Once
	metrics     *obsv.MetricsRegistry
}

// New builds a Gateway over a fixed backend pool and starts its probe
// loops. Callers must Close it.
func New(cfg Config) (*Gateway, error) {
	cfg.applyDefaults()
	seen := map[string]bool{}
	var addrs []string
	for _, a := range cfg.Backends {
		a = strings.TrimRight(strings.TrimSpace(a), "/")
		if a == "" || seen[a] {
			continue
		}
		seen[a] = true
		addrs = append(addrs, a)
	}
	if len(addrs) == 0 {
		return nil, errors.New("gateway: at least one backend is required")
	}
	pool := newPool(addrs, cfg)
	policy, err := newPolicy(cfg.Policy, pool.Backends())
	if err != nil {
		return nil, err
	}
	now := time.Now
	g := &Gateway{
		cfg:     cfg,
		pool:    pool,
		policy:  policy,
		spread:  &leastOutstanding{},
		start:   time.Now(),
		tenants: newTenantTable(now),
		adm:     newAdmission(cfg.Admission, now),
	}
	for _, t := range cfg.Tenants {
		if err := g.tenants.upsert(t); err != nil {
			return nil, err
		}
	}
	if cfg.Trace {
		g.reqLog = obsv.NewRequestLog(256)
		g.upRec = obsv.NewRecorder()
		// Pre-resolve each member's upstream span so the proxy path never
		// takes the recorder's lock.
		for _, b := range pool.Backends() {
			b.upSpan = g.upRec.Span(b.addr)
		}
	}
	pool.start()
	return g, nil
}

// Close stops the probe loops. In-flight proxied requests finish on
// their own contexts.
func (g *Gateway) Close() { g.pool.close() }

// Pool exposes the backend pool (tests, stats).
func (g *Gateway) Pool() *Pool { return g.pool }

// Server exposes a Gateway over HTTP with the same lifecycle shape as
// serve.Server.
type Server struct {
	gw   *Gateway
	http *http.Server
}

// NewServer wraps gw in an HTTP server bound to addr.
func NewServer(gw *Gateway, addr string) *Server {
	s := &Server{gw: gw}
	s.http = &http.Server{
		Addr:              addr,
		Handler:           gw.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	return s
}

// Handler returns the route mux (for httptest and in-process use).
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/models", g.handleModels)
	mux.HandleFunc("/v1/models/", g.handleModelItem)
	mux.HandleFunc("/v1/admin/", g.handleAdmin)
	mux.HandleFunc("/v1/trace", g.handleTrace)
	mux.HandleFunc("/healthz", g.handleHealthz)
	mux.HandleFunc("/stats", g.handleStats)
	mux.Handle("/metrics", g.MetricsRegistry().Handler())
	mux.HandleFunc("/", api.NotFound)
	return mux
}

// ListenAndServe blocks serving requests.
func (s *Server) ListenAndServe() error { return s.http.ListenAndServe() }

// Serve blocks serving requests on an existing listener.
func (s *Server) Serve(l net.Listener) error { return s.http.Serve(l) }

// Shutdown gracefully stops the server, then the probe loops.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.http.Shutdown(ctx)
	s.gw.Close()
	return err
}

// ---- routes ----

// handleModels answers GET /v1/models with the pool-wide aggregate: every
// model any live backend reports, state "ready" when at least one member
// serves it.
func (g *Gateway) handleModels(w http.ResponseWriter, r *http.Request) {
	rid := api.RequestID(w, r)
	if r.Method != http.MethodGet {
		api.MethodNotAllowed(w, rid, http.MethodGet)
		return
	}
	aggs := g.pool.knownModels()
	list := api.ModelList{Models: make([]api.ModelStatus, 0, len(aggs))}
	for _, a := range aggs {
		list.Models = append(list.Models, aggStatus(a))
	}
	api.WriteJSON(w, http.StatusOK, list)
}

// aggStatus folds one model's pool-wide view into the v1 DTO: the
// representative config/metrics come from one ready member, the state is
// the aggregate (ready anywhere beats loading elsewhere).
func aggStatus(a modelAgg) api.ModelStatus {
	ms := a.rep
	switch {
	case len(a.readyOn) > 0:
		ms.State = api.StateReady
	case a.anyLoad:
		ms.State = api.StateLoading
	}
	return ms
}

func (g *Gateway) handleModelItem(w http.ResponseWriter, r *http.Request) {
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
		g.predict(w, r, rid, name)
		return
	}
	switch r.Method {
	case http.MethodGet:
		g.getModel(w, rid, rest)
	case http.MethodPut:
		g.loadFanout(w, r, rid, rest)
	case http.MethodDelete:
		g.unloadFanout(w, r, rid, rest)
	default:
		api.MethodNotAllowed(w, rid, http.MethodGet, http.MethodPut, http.MethodDelete)
	}
}

func (g *Gateway) getModel(w http.ResponseWriter, rid, name string) {
	for _, a := range g.pool.knownModels() {
		if a.name == name {
			api.WriteJSON(w, http.StatusOK, aggStatus(a))
			return
		}
	}
	api.WriteAPIError(w, rid, http.StatusNotFound, api.CodeNotFound, "unknown model "+name)
}

// handleHealthz mirrors the backend readiness contract one level up: 200
// only when the pool can actually serve — at least one backend is
// routable, at least one model is loaded somewhere, and every known model
// has ≥1 ready backend. Smoke scripts reuse the same readiness poll they
// use against a single backend.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rid := api.RequestID(w, r)
	if r.Method != http.MethodGet {
		api.MethodNotAllowed(w, rid, http.MethodGet)
		return
	}
	aggs := g.pool.knownModels()
	resp := api.HealthResponse{
		Status:  "ok",
		Models:  make([]api.ModelHealth, 0, len(aggs)),
		UptimeS: time.Since(g.start).Seconds(),
	}
	ready := g.pool.routableCount() > 0 && len(aggs) > 0
	for _, a := range aggs {
		st := aggStatus(a)
		mh := api.ModelHealth{Name: a.name, State: st.State, Error: st.Error}
		if len(a.readyOn) == 0 {
			ready = false
		}
		resp.Models = append(resp.Models, mh)
	}
	code := http.StatusOK
	if !ready {
		resp.Status = "unavailable"
		code = http.StatusServiceUnavailable
	}
	api.WriteJSON(w, code, resp)
}

// handleStats answers GET /stats with the gateway's aggregated DTO:
// routing counters plus every backend's state and last probe snapshot.
func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	rid := api.RequestID(w, r)
	if r.Method != http.MethodGet {
		api.MethodNotAllowed(w, rid, http.MethodGet)
		return
	}
	adm := g.adm.stats()
	resp := api.GatewayStatsResponse{
		Schema:  api.StatsSchemaV2,
		UptimeS: time.Since(g.start).Seconds(),
		Policy:  g.policy.Name(),
		Gateway: api.GatewayStats{
			Requests:  g.ctr.requests.Load(),
			Errors:    g.ctr.errors.Load(),
			Retries:   g.ctr.retries.Load(),
			Scattered: g.ctr.scattered.Load(),
		},
		Tenants:   g.tenants.stats(),
		Admission: &adm,
	}
	for _, b := range g.pool.Backends() {
		resp.Backends = append(resp.Backends, b.status())
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

// handleTrace answers GET /v1/trace: per-backend upstream-time spans plus
// the most recent per-request phase breakdowns (newest first), each keyed
// by its X-Request-Id. Empty (Enabled false) unless the gateway was built
// with Config.Trace.
func (g *Gateway) handleTrace(w http.ResponseWriter, r *http.Request) {
	rid := api.RequestID(w, r)
	if r.Method != http.MethodGet {
		api.MethodNotAllowed(w, rid, http.MethodGet)
		return
	}
	resp := api.GatewayTraceResponse{UptimeS: time.Since(g.start).Seconds()}
	if g.reqLog != nil {
		resp.Enabled = true
		resp.Backends = g.upRec.Snapshot()
		resp.Requests = g.reqLog.Snapshot(0)
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

// ---- predict: admission, proxy, retry, scatter ----

// admit runs the multi-tenant front door for one data-plane request:
// resolve the API key to a tenant, pay its rate limit, and acquire an
// admission slot (parking in the tenant's class queue when the gateway is
// saturated). On refusal it writes the typed answer itself — 401 for an
// unknown key, 429 + Retry-After for a rate-limited or shed request —
// and returns ok false. On success the caller must invoke release once.
func (g *Gateway) admit(w http.ResponseWriter, r *http.Request, rid string) (release func(), wait time.Duration, ok bool) {
	t, err := g.tenants.resolve(r.Header.Get(api.HeaderAPIKey))
	if err != nil {
		api.WriteAPIError(w, rid, http.StatusUnauthorized, api.CodeUnauthenticated, err.Error())
		return nil, 0, false
	}
	w.Header().Set(api.HeaderTenant, t.snapshot().Name)
	wait, release, err = g.adm.acquire(r.Context().Done(), t)
	if err != nil {
		var shed *shedError
		if errors.As(err, &shed) {
			w.Header().Set("Retry-After", strconv.Itoa(shed.retryAfterSeconds()))
			api.WriteAPIError(w, rid, http.StatusTooManyRequests, shed.code, shed.msg)
		} else {
			// The client went away while queued; the answer is for the log.
			api.WriteAPIError(w, rid, http.StatusServiceUnavailable, api.CodeUnavailable, err.Error())
		}
		return nil, 0, false
	}
	return release, wait, true
}

// predict classifies the request — single volume (proxied raw) versus
// batch (scatter-gather) — and dispatches. The body is buffered either
// way: a retry must be able to resend it verbatim. Every request pays the
// admission front door before any backend work, and holds its slot until
// the response is written — the bound the admission capacity actually
// enforces.
func (g *Gateway) predict(w http.ResponseWriter, r *http.Request, rid, name string) {
	g.ctr.requests.Add(1)
	release, qwait, ok := g.admit(w, r, rid)
	if !ok {
		return
	}
	defer release()
	// The admission queue wait is traced as the "queue_wait" phase.
	qwMs := float64(qwait) / float64(time.Millisecond)
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			api.WriteAPIError(w, rid, http.StatusRequestEntityTooLarge, api.CodePayloadTooLarge, err.Error())
		} else {
			api.WriteAPIError(w, rid, http.StatusBadRequest, api.CodeInvalidArgument, "reading request: "+err.Error())
		}
		return
	}
	accept := r.Header.Get("Accept")
	ct := r.Header.Get("Content-Type")
	mediaType := ct
	if ct != "" {
		if mt, _, err := mime.ParseMediaType(ct); err == nil {
			mediaType = mt
		}
	}
	switch mediaType {
	case wire.ContentTypeTensor:
		dtype, dims, off, err := wire.PeekHeader(body)
		if err != nil {
			status, code := http.StatusBadRequest, api.CodeInvalidArgument
			if errors.Is(err, wire.ErrTooLarge) {
				status, code = http.StatusRequestEntityTooLarge, api.CodePayloadTooLarge
			}
			api.WriteAPIError(w, rid, status, code, err.Error())
			return
		}
		if dtype != wire.Float32 {
			api.WriteAPIError(w, rid, http.StatusBadRequest, api.CodeInvalidArgument,
				"voxel tensors must be float32, got "+dtype.String())
			return
		}
		switch len(dims) {
		case 3, 4:
			g.proxyPredict(w, r, rid, name, body, wire.ContentTypeTensor, accept, qwMs)
		case 5:
			g.scatterTensor(w, r, rid, name, body, dims, off, accept, qwMs)
		default:
			api.WriteAPIError(w, rid, http.StatusBadRequest, api.CodeInvalidArgument,
				fmt.Sprintf("voxel tensors must be [D H W], [C D H W], or batched [N C D H W], got %d dims", len(dims)))
		}
	case wire.ContentTypeJSON, "":
		var req api.PredictRequest
		if err := json.Unmarshal(body, &req); err != nil {
			api.WriteAPIError(w, rid, http.StatusBadRequest, api.CodeInvalidArgument, "decoding request: "+err.Error())
			return
		}
		if len(req.Batch) > 0 {
			if len(req.Voxels) > 0 {
				api.WriteAPIError(w, rid, http.StatusBadRequest, api.CodeInvalidArgument,
					"voxels and batch are mutually exclusive")
				return
			}
			g.scatterJSON(w, r, rid, name, req.Batch, accept, qwMs)
			return
		}
		g.proxyPredict(w, r, rid, name, body, ct, accept, qwMs)
	default:
		api.WriteAPIError(w, rid, http.StatusUnsupportedMediaType, api.CodeUnsupportedMedia,
			"unsupported Content-Type "+ct+"; use "+wire.ContentTypeJSON+" or "+wire.ContentTypeTensor)
	}
}

// errNoBackend means routing found no candidate left to try.
var errNoBackend = errors.New("gateway: no ready backend")

// msSince converts an elapsed duration to the trace payloads' millisecond
// unit.
func msSince(t0 time.Time) float64 {
	return float64(time.Since(t0)) / float64(time.Millisecond)
}

// proxyPredict forwards a single-volume predict and streams the winning
// backend's response through verbatim, tagged with X-Cosmoflow-Backend.
// With tracing on, the request's queue/upstream/write split lands in the
// recent-request ring under its X-Request-Id.
func (g *Gateway) proxyPredict(w http.ResponseWriter, r *http.Request, rid, name string, body []byte, ct, accept string, qwMs float64) {
	var t0 time.Time
	if g.reqLog != nil {
		t0 = time.Now()
	}
	resp, b, err := g.forwardWithRetry(r.Context(), g.policy, rid, name, body, ct, accept)
	if err != nil {
		g.ctr.errors.Add(1)
		g.writeRouteError(w, rid, name, err)
		return
	}
	var upMs float64
	if g.reqLog != nil {
		upMs = msSince(t0)
	}
	copyResponse(w, resp, b.Addr())
	if g.reqLog != nil {
		total := msSince(t0)
		g.reqLog.Add(obsv.RequestTrace{
			RequestID: rid, Model: name, Backend: b.Addr(), TotalMs: total,
			PhasesMs: map[string]float64{"queue_wait": qwMs, "upstream": upMs, "write": total - upMs},
		})
	}
}

// writeRouteError maps a routing failure: unknown model → 404, known (or
// pool empty) but unservable right now → 503 so clients retry.
func (g *Gateway) writeRouteError(w http.ResponseWriter, rid, name string, err error) {
	if errors.Is(err, errNoBackend) {
		for _, a := range g.pool.knownModels() {
			if a.name == name {
				api.WriteAPIError(w, rid, http.StatusServiceUnavailable, api.CodeUnavailable,
					"no ready backend for model "+name)
				return
			}
		}
		if g.pool.routableCount() == 0 {
			api.WriteAPIError(w, rid, http.StatusServiceUnavailable, api.CodeUnavailable,
				"no routable backend in the pool")
			return
		}
		api.WriteAPIError(w, rid, http.StatusNotFound, api.CodeNotFound, "unknown model "+name)
		return
	}
	api.WriteAPIError(w, rid, http.StatusBadGateway, api.CodeUpstream, err.Error())
}

// retryableStatus marks backend answers worth a different backend: 404
// (stale placement — the model moved), 500 (panic path), 502/503
// (draining, loading, overloaded). Client errors pass through.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusNotFound, http.StatusInternalServerError,
		http.StatusBadGateway, http.StatusServiceUnavailable:
		return true
	}
	return false
}

// forwardWithRetry sends body to one backend after another, each picked
// by policy, until an acceptable answer arrives: every attempt after the
// first is a failover to a backend not yet tried. A retryable response is
// passed through anyway when it is the last word (no candidates or
// attempts left) so the client sees the backend's own error, not a
// gateway-invented one.
func (g *Gateway) forwardWithRetry(ctx context.Context, policy Policy, rid, name string, body []byte, ct, accept string) (*http.Response, *Backend, error) {
	tried := map[*Backend]bool{}
	var lastErr error
	attempts := g.cfg.Retries + 1
	for i := 0; i < attempts; i++ {
		b := policy.Pick(name, g.pool.candidates(name, tried))
		if b == nil {
			break
		}
		tried[b] = true
		if i > 0 {
			g.ctr.retries.Add(1)
		}
		resp, err := g.send(ctx, b, rid, name, body, ct, accept)
		if err != nil {
			lastErr = err
			continue
		}
		if !retryableStatus(resp.StatusCode) ||
			i == attempts-1 || len(g.pool.candidates(name, tried)) == 0 {
			return resp, b, nil
		}
		lastErr = fmt.Errorf("backend %s answered %d", b.Addr(), resp.StatusCode)
		discard(resp)
	}
	if lastErr == nil {
		lastErr = errNoBackend
	}
	return nil, nil, lastErr
}

// send proxies one attempt to one backend, maintaining its outstanding
// count (the least-outstanding signal) and failure streak (the circuit
// breaker input). A transport error counts toward ejection; an HTTP error
// does not — the backend is alive and its own /healthz governs its state.
func (g *Gateway) send(ctx context.Context, b *Backend, rid, name string, body []byte, ct, accept string) (*http.Response, error) {
	b.requests.Add(1)
	b.outstanding.Add(1)
	defer b.outstanding.Add(-1)
	hdr := http.Header{}
	if rid != "" {
		hdr.Set(api.HeaderRequestID, rid)
	}
	t0 := time.Now()
	resp, err := b.cl.PredictRaw(ctx, name, body, ct, accept, hdr)
	if err != nil {
		b.recordFailure(g.cfg.EjectAfter)
		return nil, fmt.Errorf("backend %s: %w", b.addr, err)
	}
	if resp.StatusCode >= http.StatusInternalServerError {
		b.errors.Add(1)
	} else {
		b.recordSuccess()
	}
	if b.upSpan != nil {
		b.upSpan.Observe(time.Since(t0))
	}
	return resp, nil
}

// ---- scatter-gather ----

// scatterTensor splits an [N C D H W] float32 frame into N single-volume
// frames by re-framing raw payload slices (no element conversion — the
// bytes each backend sees are exactly the bytes the client sent), routes
// them across the ready pool, and reassembles the answers in input order.
func (g *Gateway) scatterTensor(w http.ResponseWriter, r *http.Request, rid, name string, body []byte, dims []int, off int, accept string, qwMs float64) {
	sub := dims[1:]
	elems := 1
	for _, d := range sub {
		elems *= d
	}
	n := dims[0]
	per := 4 * elems
	if len(body) != off+n*per {
		api.WriteAPIError(w, rid, http.StatusBadRequest, api.CodeInvalidArgument,
			fmt.Sprintf("batch frame dims %v imply %d payload bytes, body has %d", dims, n*per, len(body)-off))
		return
	}
	hdr, err := wire.EncodeHeader(nil, wire.Float32, sub)
	if err != nil {
		api.WriteAPIError(w, rid, http.StatusBadRequest, api.CodeInvalidArgument, err.Error())
		return
	}
	bodies := make([][]byte, n)
	for i := range bodies {
		fb := make([]byte, 0, len(hdr)+per)
		fb = append(fb, hdr...)
		bodies[i] = append(fb, body[off+i*per:off+(i+1)*per]...)
	}
	g.scatter(w, r, rid, name, bodies, wire.ContentTypeTensor, accept, qwMs)
}

// scatterJSON is the JSON batch form: each volume re-encodes as its own
// JSON predict body. float32 ↔ JSON round-trips exactly (shortest
// representation), so backends decode the same float32 values a direct
// request would carry.
func (g *Gateway) scatterJSON(w http.ResponseWriter, r *http.Request, rid, name string, batch [][]float32, accept string, qwMs float64) {
	bodies := make([][]byte, len(batch))
	for i, vox := range batch {
		b, err := json.Marshal(api.PredictRequest{Voxels: vox})
		if err != nil {
			api.WriteAPIError(w, rid, http.StatusBadRequest, api.CodeInvalidArgument, err.Error())
			return
		}
		bodies[i] = b
	}
	g.scatter(w, r, rid, name, bodies, wire.ContentTypeJSON, accept, qwMs)
}

// scatter fans the sub-requests across the pool (least-outstanding, with
// the same per-volume retry as single requests), gathers the typed
// answers in order, and renders the batch response in the negotiated
// encoding. Any sub-request failure fails the batch: a partial batch
// would silently misalign the caller's index space.
func (g *Gateway) scatter(w http.ResponseWriter, r *http.Request, rid, name string, bodies [][]byte, ct, accept string, qwMs float64) {
	g.ctr.scattered.Add(1)
	width := 4 * len(g.pool.Backends())
	if width > len(bodies) {
		width = len(bodies)
	}
	if width < 1 {
		width = 1
	}
	preds := make([]*api.PredictResponse, len(bodies))
	errs := make([]error, len(bodies))
	// With tracing on, each sub-volume contributes its slot wait (time to a
	// free scatter slot) and its upstream round trip; the sums plus the
	// reassembly time form this request's phase breakdown.
	var t0 time.Time
	var waits, ups []float64
	if g.reqLog != nil {
		t0 = time.Now()
		waits = make([]float64, len(bodies))
		ups = make([]float64, len(bodies))
	}
	sem := make(chan struct{}, width)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		sem <- struct{}{}
		if g.reqLog != nil {
			waits[i] = msSince(t0)
		}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			var s0 time.Time
			if g.reqLog != nil {
				s0 = time.Now()
			}
			preds[i], errs[i] = g.scatterOne(r.Context(), rid, name, bodies[i], ct)
			if g.reqLog != nil {
				ups[i] = msSince(s0)
			}
		}(i)
	}
	wg.Wait()
	if g.reqLog != nil {
		gather0 := time.Now()
		// Deferred so the gather phase covers reassembly and the response
		// write, whichever exit path renders it.
		defer func() {
			// The admission queue wait joins the scatter-slot waits: both are
			// time this request spent parked before backend work.
			qw, up := qwMs, 0.0
			for i := range waits {
				qw += waits[i]
				up += ups[i]
			}
			g.reqLog.Add(obsv.RequestTrace{
				RequestID: rid, Model: name, TotalMs: msSince(t0),
				PhasesMs: map[string]float64{
					"queue_wait": qw, "upstream": up, "gather": msSince(gather0),
				},
			})
		}()
	}
	for _, err := range errs {
		if err == nil {
			continue
		}
		g.ctr.errors.Add(1)
		var apiErr *client.APIError
		if errors.As(err, &apiErr) {
			code := apiErr.Code
			if code == "" {
				code = api.CodeUpstream
			}
			api.WriteAPIError(w, rid, apiErr.StatusCode, code, apiErr.Message)
			return
		}
		g.writeRouteError(w, rid, name, err)
		return
	}
	if strings.Contains(accept, wire.ContentTypeTensor) {
		g.writeTensorBatch(w, rid, preds)
		return
	}
	resp := api.BatchPredictResponse{
		Model:       preds[0].Model,
		Count:       len(preds),
		Predictions: make([]api.PredictResponse, len(preds)),
		RequestID:   rid,
	}
	for i, p := range preds {
		resp.Predictions[i] = *p
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

// scatterOne routes one sub-volume with failover, decoding
// the backend's answer through the typed client (the binary Accept path,
// so params and normalized outputs arrive bit-exact however ct encoded
// the request).
func (g *Gateway) scatterOne(ctx context.Context, rid, name string, body []byte, ct string) (*api.PredictResponse, error) {
	resp, b, err := g.forwardWithRetry(ctx, g.spread, rid, name, body, ct, wire.ContentTypeTensor)
	if err != nil {
		return nil, err
	}
	pr, err := client.DecodePredict(resp)
	if err != nil {
		return nil, err
	}
	pr.Backend = b.Addr()
	return pr, nil
}

// writeTensorBatch renders the gathered answers as one [N 2 3] float64
// frame: each row pair is exactly the [2 3] frame the backend produced
// for that volume, stacked in input order.
func (g *Gateway) writeTensorBatch(w http.ResponseWriter, rid string, preds []*api.PredictResponse) {
	data := make([]float64, 0, 6*len(preds))
	for _, p := range preds {
		data = append(data,
			p.Params.OmegaM, p.Params.Sigma8, p.Params.NS,
			float64(p.Normalized[0]), float64(p.Normalized[1]), float64(p.Normalized[2]))
	}
	t, err := wire.FromFloat64([]int{len(preds), 2, 3}, data)
	if err != nil {
		api.WriteAPIError(w, rid, http.StatusInternalServerError, api.CodeInternal, err.Error())
		return
	}
	h := w.Header()
	h.Set("Content-Type", wire.ContentTypeTensor)
	h.Set("Content-Length", strconv.Itoa(t.EncodedSize()))
	h.Set(api.HeaderModel, preds[0].Model)
	h.Set(api.HeaderBatchSize, strconv.Itoa(len(preds)))
	w.WriteHeader(http.StatusOK)
	_, _ = t.WriteTo(w)
}

// ---- lifecycle fan-out ----

// loadFanout broadcasts PUT /v1/models/{name} to every reachable backend
// in parallel and aggregates the per-backend outcomes: 200 when the whole
// pool converged, 502 with the detail attached when any member diverged.
func (g *Gateway) loadFanout(w http.ResponseWriter, r *http.Request, rid, name string) {
	var spec api.LoadModelRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&spec); err != nil {
		api.WriteAPIError(w, rid, http.StatusBadRequest, api.CodeInvalidArgument, "decoding request: "+err.Error())
		return
	}
	if spec.InputDim < 1 {
		api.WriteAPIError(w, rid, http.StatusBadRequest, api.CodeInvalidArgument,
			"input_dim is required (the voxel edge length the checkpoint was trained with)")
		return
	}
	g.fanout(w, r, rid, name, "load", func(ctx context.Context, b *Backend) error {
		_, err := b.cl.LoadModel(ctx, name, spec)
		return err
	})
}

// unloadFanout broadcasts DELETE. A 404 from an individual member counts
// as success — the model is absent there, which is the requested state —
// but a model unknown to the whole pool is a plain 404.
func (g *Gateway) unloadFanout(w http.ResponseWriter, r *http.Request, rid, name string) {
	known := false
	for _, a := range g.pool.knownModels() {
		if a.name == name {
			known = true
			break
		}
	}
	if !known {
		api.WriteAPIError(w, rid, http.StatusNotFound, api.CodeNotFound, "unknown model "+name)
		return
	}
	g.fanout(w, r, rid, name, "unload", func(ctx context.Context, b *Backend) error {
		err := b.cl.UnloadModel(ctx, name)
		var apiErr *client.APIError
		if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusNotFound {
			return nil
		}
		return err
	})
}

func (g *Gateway) fanout(w http.ResponseWriter, r *http.Request, rid, name, op string, do func(context.Context, *Backend) error) {
	var targets []*Backend
	for _, b := range g.pool.Backends() {
		if b.reachable() {
			targets = append(targets, b)
		}
	}
	if len(targets) == 0 {
		api.WriteAPIError(w, rid, http.StatusServiceUnavailable, api.CodeUnavailable,
			"no reachable backend in the pool")
		return
	}
	results := make([]api.BackendOpResult, len(targets))
	var wg sync.WaitGroup
	for i, b := range targets {
		wg.Add(1)
		go func(i int, b *Backend) {
			defer wg.Done()
			res := api.BackendOpResult{Backend: b.Addr(), Status: "ok"}
			if err := do(r.Context(), b); err != nil {
				res.Status = "error"
				res.Error = err.Error()
			}
			results[i] = res
		}(i, b)
	}
	wg.Wait()
	// A lifecycle op changes placement, so refresh the targets' snapshots
	// before answering: a 200 then means "routable through the gateway
	// now", matching the backend's own synchronous-load contract, instead
	// of "routable after the next probe tick".
	var pwg sync.WaitGroup
	for _, b := range targets {
		pwg.Add(1)
		go func(b *Backend) { defer pwg.Done(); g.pool.probe(b) }(b)
	}
	pwg.Wait()
	sort.Slice(results, func(i, j int) bool { return results[i].Backend < results[j].Backend })
	resp := api.FanoutResponse{Model: name, Op: op, Results: results, RequestID: rid}
	var failed []string
	for _, res := range results {
		if res.Status != "ok" {
			failed = append(failed, res.Backend)
		}
	}
	if len(failed) > 0 {
		// Re-probe soon regardless: a failed broadcast means pool state
		// diverged and routing should follow reality, not intent.
		api.WriteJSON(w, http.StatusBadGateway, api.ErrorResponse{Error: api.ErrorDetail{
			Code:      api.CodeUpstream,
			Message:   fmt.Sprintf("%s %s failed on %s", op, name, strings.Join(failed, ", ")),
			RequestID: rid,
			Details:   resp,
		}})
		return
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

// ---- plumbing ----

// hopByHop are the headers a proxy must not forward (RFC 9110 §7.6.1).
var hopByHop = map[string]bool{
	"Connection":          true,
	"Keep-Alive":          true,
	"Proxy-Authenticate":  true,
	"Proxy-Authorization": true,
	"Te":                  true,
	"Trailer":             true,
	"Transfer-Encoding":   true,
	"Upgrade":             true,
}

// copyResponse streams a backend answer through verbatim — status,
// end-to-end headers, body bytes — plus the backend identity header.
func copyResponse(w http.ResponseWriter, resp *http.Response, backendAddr string) {
	defer discard(resp)
	h := w.Header()
	for k, vs := range resp.Header {
		if hopByHop[http.CanonicalHeaderKey(k)] {
			continue
		}
		h[k] = vs
	}
	h.Set(api.HeaderBackend, backendAddr)
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// discard drains and closes a response so its connection is reusable.
func discard(resp *http.Response) {
	if resp == nil {
		return
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
}
