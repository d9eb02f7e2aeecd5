// Package api defines the versioned v1 serving surface shared by the
// servers (internal/serve, internal/gateway) and the typed client
// (internal/serve/client): request/response DTOs, the error envelope and
// the helpers that write it, header names, and error codes. It depends
// only on the wire codec, obsv's span types and the standard library, so
// clients link it without pulling in the network stack.
//
// Routes (see DESIGN.md "Serving API v1" for the full contract):
//
//	POST   /v1/models/{name}:predict   score one volume (JSON or binary tensor)
//	GET    /v1/models                  list models with status/config/metrics
//	GET    /v1/models/{name}           one model's status/config/metrics
//	PUT    /v1/models/{name}           load or hot-swap a checkpoint
//	DELETE /v1/models/{name}           drain and unload
//	GET    /healthz                    readiness (503 until every model is ready)
//	GET    /stats                      per-model serving counters
//
// cosmoflow-gateway additionally serves the admin plane (operator
// control surface, distinct from the tenant-facing data plane above; see
// DESIGN.md "Serving API v1"):
//
//	GET    /v1/admin/tenants           admission table (TenantList)
//	PUT    /v1/admin/tenants           upsert one Tenant (hot reload)
//	DELETE /v1/admin/tenants/{key}     remove a tenant
//
// Predict bodies are negotiated by Content-Type — wire.ContentTypeJSON
// (PredictRequest) or wire.ContentTypeTensor (one [C D H W] or [D H W]
// float32 frame) — and responses by Accept: JSON yields PredictResponse;
// the tensor content type yields a [2 3] float64 frame (row 0 the
// denormalized parameters, row 1 the normalized network outputs, exact in
// float64) with the remaining PredictResponse fields carried in the
// X-Cosmoflow-* headers. Errors are always the JSON ErrorResponse
// envelope, whatever the negotiated encoding — unknown paths included,
// which answer 404 through NotFound.
package api

import "repro/internal/obsv"

// DefaultModel is the name a model takes when its config names none — the
// model a single-checkpoint daemon serves at /v1/models/default:predict.
const DefaultModel = "default"

// Header names used by the v1 API.
const (
	// HeaderRequestID is echoed from the request (or generated server-side)
	// on every response, and repeated in the error envelope.
	HeaderRequestID = "X-Request-Id"
	// HeaderModel carries PredictResponse.Model on binary responses.
	HeaderModel = "X-Cosmoflow-Model"
	// HeaderBatchSize carries PredictResponse.BatchSize on binary responses.
	HeaderBatchSize = "X-Cosmoflow-Batch-Size"
	// HeaderLatencyMs carries PredictResponse.LatencyMs on binary responses.
	HeaderLatencyMs = "X-Cosmoflow-Latency-Ms"
	// HeaderBackend identifies which pool member served a request routed
	// through cosmoflow-gateway (the backend's base URL). Absent on direct
	// backend responses; the typed client copies it into
	// PredictResponse.Backend so load generators can report spread.
	HeaderBackend = "X-Cosmoflow-Backend"
	// HeaderAPIKey authenticates a tenant (data plane) or an operator
	// (admin plane) to cosmoflow-gateway. Single-process backends ignore
	// it.
	HeaderAPIKey = "X-Api-Key"
	// HeaderTenant names the admitted tenant on gateway responses, so load
	// generators can verify per-tenant attribution without parsing /stats.
	HeaderTenant = "X-Cosmoflow-Tenant"
)

// Error codes carried in the error envelope, mirroring the HTTP status.
const (
	CodeInvalidArgument  = "INVALID_ARGUMENT"   // 400
	CodeNotFound         = "NOT_FOUND"          // 404
	CodeMethodNotAllowed = "METHOD_NOT_ALLOWED" // 405
	CodeUnsupportedMedia = "UNSUPPORTED_MEDIA"  // 415
	CodePayloadTooLarge  = "PAYLOAD_TOO_LARGE"  // 413
	CodeUnavailable      = "UNAVAILABLE"        // 503 (draining/hot-swap; retry)
	CodeInternal         = "INTERNAL"           // 500
	CodeUpstream         = "UPSTREAM"           // 502 (gateway: backend(s) failed)
	CodeUnauthenticated  = "UNAUTHENTICATED"    // 401 (missing/unknown API key)
	CodeRateLimited      = "RATE_LIMITED"       // 429 (token bucket empty; Retry-After set)
	CodeOverloaded       = "OVERLOADED"         // 429 (admission queue full/timed out; Retry-After set)
)

// Model lifecycle states reported by /v1/models and /healthz.
const (
	StateLoading = "loading" // build/checkpoint-load in progress, no instance serving yet
	StateReady   = "ready"   // checkpoint loaded, replicas built, accepting requests
	StateFailed  = "failed"  // last load failed and no instance is serving
)

// ErrorDetail is the typed error payload. Details is optional structured
// context (the gateway attaches a FanoutResponse to CodeUpstream errors so
// a failed broadcast still reports the per-backend outcomes).
type ErrorDetail struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	RequestID string `json:"request_id,omitempty"`
	Details   any    `json:"details,omitempty"`
}

// ErrorResponse is the envelope every non-2xx response carries.
type ErrorResponse struct {
	Error ErrorDetail `json:"error"`
}

// Params is the denormalized cosmological parameter triple.
type Params struct {
	OmegaM float64 `json:"omega_m"`
	Sigma8 float64 `json:"sigma8"`
	NS     float64 `json:"ns"`
}

// PredictRequest is the JSON predict body; the model is named in the URL.
// Batch is the gateway's scatter-gather form: a list of equally-shaped
// volumes that cosmoflow-gateway splits across ready backends and
// reassembles in order; backends themselves take exactly one of Voxels or
// (never) Batch.
type PredictRequest struct {
	Voxels []float32   `json:"voxels,omitempty"`
	Batch  [][]float32 `json:"batch,omitempty"`
}

// PredictResponse is the predict answer (JSON form; the binary form
// carries Params+Normalized in a [2 3] float64 tensor and the rest in
// headers).
type PredictResponse struct {
	Model      string     `json:"model"`
	Params     Params     `json:"params"`
	Normalized [3]float32 `json:"normalized"`
	BatchSize  int        `json:"batch_size"`
	LatencyMs  float64    `json:"latency_ms"`
	RequestID  string     `json:"request_id,omitempty"`
	// Backend is the pool member that served the request when it was routed
	// through cosmoflow-gateway. Backends never set it in response bodies;
	// the typed client fills it from the HeaderBackend response header, so
	// body bytes stay bit-identical between direct and gateway paths.
	Backend string `json:"backend,omitempty"`
}

// BatchPredictResponse is the gateway's answer to a scatter-gather predict
// (JSON form): one PredictResponse per input volume, in input order. The
// binary form is an [N 2 3] float64 frame whose rows are the individual
// response frames stacked in order.
type BatchPredictResponse struct {
	Model       string            `json:"model"`
	Count       int               `json:"count"`
	Predictions []PredictResponse `json:"predictions"`
	RequestID   string            `json:"request_id,omitempty"`
}

// PredictTensorDims is the shape of the binary predict response frame:
// row 0 Params (ΩM, σ8, ns), row 1 Normalized widened to float64 (exact).
var PredictTensorDims = []int{2, 3}

// Stats is one model's serving counters (the /stats and ModelStatus
// metrics shape). internal/serve aliases this type, so server-side metrics
// snapshots are these values directly.
type Stats struct {
	Requests   int64   `json:"requests"`
	Errors     int64   `json:"errors"`
	Batches    int64   `json:"batches"`
	AvgBatch   float64 `json:"avg_batch"`
	QueueDepth int64   `json:"queue_depth"`
	Inflight   int64   `json:"inflight"`
	MeanMs     float64 `json:"mean_ms"`
	P50Ms      float64 `json:"p50_ms"`
	P99Ms      float64 `json:"p99_ms"`
	// AvgKernelMs is the mean batched-forward compute time per dispatched
	// micro-batch; AvgQueueMs the mean batcher wait per request. Their
	// split is what makes kernel-level batching gains observable: under
	// load AvgKernelMs grows sublinearly in AvgBatch while AvgQueueMs
	// absorbs the coalescing delay.
	AvgKernelMs float64 `json:"avg_kernel_ms"`
	AvgQueueMs  float64 `json:"avg_queue_ms"`
}

// SpanStat is one named timing span's aggregate (count/total/avg/max) —
// the building block of every trace payload. Aliased from internal/obsv
// (stdlib-only, like the wire codec) so server-side snapshots are these
// wire values directly.
type SpanStat = obsv.SpanStat

// RequestTrace is one routed request's phase timing breakdown, keyed by
// the X-Request-Id the gateway echoed on the response.
type RequestTrace = obsv.RequestTrace

// ModelTrace is one model's per-layer forward timing in GET /v1/trace:
// Forward covers whole forward passes (one observation per InferBatch
// dispatch across the replica pool), Layers one span per network layer in
// stack order. Per-layer totals sum to Forward's total up to clock-read
// skew (the contract is within 10%; in practice well under 1%).
type ModelTrace struct {
	Model   string     `json:"model"`
	Forward SpanStat   `json:"forward"`
	Layers  []SpanStat `json:"layers"`
}

// TraceResponse is GET /v1/trace on a backend: every traced model's
// per-layer breakdown. Models loaded without tracing are absent; Enabled
// is false when no loaded model traces.
type TraceResponse struct {
	UptimeS float64      `json:"uptime_s"`
	Enabled bool         `json:"enabled"`
	Models  []ModelTrace `json:"models"`
}

// LayerRoofline is one layer's FLOPs-versus-time attribution in the
// GET /v1/roofline response: the analytic forward FLOP count joined with
// the observed span timing into an achieved GFLOP/s, plus its percentage
// of the best rate observed across layers. Aliased from internal/obsv
// like SpanStat, so server-side roofline snapshots are wire values.
type LayerRoofline = obsv.LayerRoofline

// ModelRoofline is one traced model's per-layer roofline attribution.
// Samples is the batch-item total the span timings cover (micro-batched
// serving observes one span per dispatch, not per sample).
type ModelRoofline struct {
	Model   string          `json:"model"`
	Samples int64           `json:"samples"`
	Layers  []LayerRoofline `json:"layers"`
}

// RooflineResponse is GET /v1/roofline: every traced model's per-layer
// GFLOP/s attribution since load (or the last counter reset). Models
// loaded without tracing are absent; Enabled is false when none trace.
type RooflineResponse struct {
	UptimeS float64         `json:"uptime_s"`
	Enabled bool            `json:"enabled"`
	Models  []ModelRoofline `json:"models"`
}

// GatewayTraceResponse is GET /v1/trace on cosmoflow-gateway: per-backend
// upstream-time spans plus the most recent per-request phase breakdowns
// (newest first), each keyed by its X-Request-Id.
type GatewayTraceResponse struct {
	UptimeS  float64        `json:"uptime_s"`
	Enabled  bool           `json:"enabled"`
	Backends []SpanStat     `json:"backends,omitempty"`
	Requests []RequestTrace `json:"requests,omitempty"`
}

// ModelStatus is one model's entry in GET /v1/models: lifecycle state,
// the config it was loaded with, and its live metrics when ready.
type ModelStatus struct {
	Name  string `json:"name"`
	State string `json:"state"`
	// Error is the last load failure; set when State is "failed", and also
	// alongside "ready" when a later hot-swap attempt failed and the
	// previous instance kept serving.
	Error             string  `json:"error,omitempty"`
	InputShape        []int   `json:"input_shape,omitempty"` // [C D H W], ready models only
	Replicas          int     `json:"replicas,omitempty"`
	WorkersPerReplica int     `json:"workers_per_replica,omitempty"`
	MaxBatch          int     `json:"max_batch,omitempty"`
	MaxDelayMs        float64 `json:"max_delay_ms,omitempty"`
	CheckpointPath    string  `json:"checkpoint_path,omitempty"`
	Stats             *Stats  `json:"stats,omitempty"`
}

// ModelList is the GET /v1/models answer, sorted by name.
type ModelList struct {
	Models []ModelStatus `json:"models"`
}

// LoadModelRequest is the PUT /v1/models/{name} body: the topology the
// checkpoint was trained with plus serving knobs. CheckpointPath is a
// server-local path (this is an operator API, in the spirit of
// TF-Serving's model-config reloads); empty serves fresh weights.
type LoadModelRequest struct {
	CheckpointPath    string  `json:"checkpoint_path,omitempty"`
	InputDim          int     `json:"input_dim"`
	InputChannels     int     `json:"input_channels,omitempty"`      // default 1
	BaseChannels      int     `json:"base_channels,omitempty"`       // default 4
	Replicas          int     `json:"replicas,omitempty"`            // default 1
	WorkersPerReplica int     `json:"workers_per_replica,omitempty"` // default 1
	MaxBatch          int     `json:"max_batch,omitempty"`           // default 8
	MaxDelayMs        float64 `json:"max_delay_ms,omitempty"`        // default 2
	// Trace opts this model into per-layer forward timing (surfaced in
	// /stats and GET /v1/trace). Off by default: the traced path pays two
	// clock reads per layer per micro-batch, the untraced path one nil
	// check per forward.
	Trace bool `json:"trace,omitempty"`
}

// UnloadModelResponse is the DELETE /v1/models/{name} answer; the drain
// completes in the background while in-flight requests finish unaffected.
type UnloadModelResponse struct {
	Model     string `json:"model"`
	Status    string `json:"status"` // "unloading"
	RequestID string `json:"request_id,omitempty"`
}

// ModelHealth is one model's readiness entry in /healthz.
type ModelHealth struct {
	Name  string `json:"name"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// HealthResponse is the /healthz answer. Status is "ok" (200) only when
// at least one model is configured and every configured model is ready;
// otherwise "unavailable" (503) — which is what makes a startup readiness
// poll load-bearing.
type HealthResponse struct {
	Status  string        `json:"status"`
	Models  []ModelHealth `json:"models"`
	UptimeS float64       `json:"uptime_s"`
}

// ModelStats is one model's entry in the /stats answer. Forward/Layers
// carry the per-layer trace for models loaded with Trace (absent
// otherwise) — the same numbers GET /v1/trace reports.
type ModelStats struct {
	Stats
	Replicas int        `json:"replicas"`
	Forward  *SpanStat  `json:"forward,omitempty"`
	Layers   []SpanStat `json:"layers,omitempty"`
}

// StatsResponse is the /stats answer.
type StatsResponse struct {
	UptimeS float64               `json:"uptime_s"`
	Models  map[string]ModelStats `json:"models"`
}

// Backend pool states reported by the gateway (see internal/gateway).
const (
	BackendJoining  = "joining"  // configured, no successful probe yet
	BackendReady    = "ready"    // probes healthy, every model ready
	BackendDegraded = "degraded" // reachable but /healthz 503 (some models not ready)
	BackendEjected  = "ejected"  // circuit open after consecutive failures
)

// BackendOpResult is one backend's outcome in a gateway lifecycle fan-out
// (PUT/DELETE /v1/models/{name} broadcast to the pool).
type BackendOpResult struct {
	Backend string `json:"backend"`
	Status  string `json:"status"` // "ok" or "error"
	Error   string `json:"error,omitempty"`
}

// FanoutResponse aggregates a lifecycle broadcast: 200 only when every
// non-ejected backend succeeded; otherwise 502 with the per-backend
// failures preserved so operators see exactly which members diverged.
type FanoutResponse struct {
	Model     string            `json:"model"`
	Op        string            `json:"op"` // "load" or "unload"
	Results   []BackendOpResult `json:"results"`
	RequestID string            `json:"request_id,omitempty"`
}

// BackendStatus is one pool member's entry in the gateway's /stats answer:
// router-facing state plus the per-model snapshot from its last probe.
type BackendStatus struct {
	Backend      string        `json:"backend"`
	State        string        `json:"state"`
	Outstanding  int64         `json:"outstanding"` // gateway requests in flight on it
	Requests     int64         `json:"requests"`    // gateway requests routed to it
	Errors       int64         `json:"errors"`      // transport/5xx failures observed
	ConsecFails  int64         `json:"consec_fails"`
	ReadyModels  []string      `json:"ready_models,omitempty"`
	Models       []ModelStatus `json:"models,omitempty"` // last probe's GET /v1/models
	LastProbeAgo float64       `json:"last_probe_ago_s"`
}

// GatewayStats are the gateway's own routing counters.
type GatewayStats struct {
	Requests  int64 `json:"requests"`
	Errors    int64 `json:"errors"`    // requests that exhausted retries
	Retries   int64 `json:"retries"`   // failover re-sends to another backend
	Scattered int64 `json:"scattered"` // batch requests split across the pool
}

// StatsSchemaV2 is the current GET /stats schema identifier on
// cosmoflow-gateway. v1 payloads carried no schema field. Every v1 field
// but two keeps its name and shape in v2: the gateway object's two
// duplicate-request counters (tail-latency requests launched and won)
// are dropped with the feature that fed them, leaving requests, errors,
// retries and scattered. A v1 reader decodes their absence as 0, which is
// what it read under the default config, where that feature was off; so
// a v1 reader still decodes a v2 payload unchanged. The schema field only
// lets readers detect the per-tenant extension.
const StatsSchemaV2 = "cosmoflow-stats/v2"

// GatewayStatsResponse is GET /stats on cosmoflow-gateway: the routing
// counters plus every backend's status — the aggregated stats DTO the
// single-process StatsResponse cannot express. Schema, Tenants, and
// Admission are the v2 extension; every other field keeps its v1 shape
// (see StatsSchemaV2 for the two dropped counters).
type GatewayStatsResponse struct {
	Schema   string          `json:"schema,omitempty"` // StatsSchemaV2
	UptimeS  float64         `json:"uptime_s"`
	Policy   string          `json:"policy"`
	Gateway  GatewayStats    `json:"gateway"`
	Backends []BackendStatus `json:"backends"`

	Tenants   []TenantStats   `json:"tenants,omitempty"`
	Admission *AdmissionStats `json:"admission,omitempty"`
}

// ---- multi-tenant admission (gateway v2) ----

// Tenant priority classes, in shed order: best-effort is dropped first
// under overload, premium last.
const (
	ClassPremium    = "premium"
	ClassStandard   = "standard"
	ClassBestEffort = "best-effort"
)

// Tenant is one API-key principal in the gateway's admission table: its
// priority class plus a token-bucket rate limit. It is both the config
// file entry and the PUT /v1/admin/tenants body.
type Tenant struct {
	// Key is the API key presented in HeaderAPIKey; it is the tenant's
	// identity. Required.
	Key string `json:"key"`
	// Name is the display name used in stats; defaults to the key.
	Name string `json:"name,omitempty"`
	// Class is the priority class (ClassPremium, ClassStandard,
	// ClassBestEffort); default standard.
	Class string `json:"class,omitempty"`
	// RatePerSec is the token-bucket refill rate; 0 means unlimited.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// Burst is the bucket depth (max tokens); default max(1, RatePerSec).
	Burst float64 `json:"burst,omitempty"`
}

// TenantList is GET /v1/admin/tenants (and the -tenants config file
// shape), sorted by key.
type TenantList struct {
	Tenants []Tenant `json:"tenants"`
}

// TenantStats is one tenant's admission counters in GET /stats v2.
type TenantStats struct {
	Name     string `json:"name"`
	Class    string `json:"class"`
	Admitted int64  `json:"admitted"`
	// RateLimited counts sheds by the tenant's own token bucket (429,
	// CodeRateLimited); Shed counts queue-pressure sheds (429,
	// CodeOverloaded).
	RateLimited int64 `json:"rate_limited"`
	Shed        int64 `json:"shed"`
	// AvgQueueMs is the mean admission-queue wait over admitted requests.
	AvgQueueMs float64 `json:"avg_queue_ms"`
}

// AdmissionStats is the admission controller's aggregate view in
// GET /stats v2.
type AdmissionStats struct {
	// Capacity is the concurrent-admission limit; Inflight the requests
	// holding a slot right now; Queued the waiters parked across all
	// class queues.
	Capacity int   `json:"capacity"`
	Inflight int   `json:"inflight"`
	Queued   int   `json:"queued"`
	Admitted int64 `json:"admitted"`
	Shed     int64 `json:"shed"`
}
