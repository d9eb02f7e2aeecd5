// Package client is the typed Go client for the v1 serving API
// (internal/serve/api): predictions over either encoding — JSON or the
// internal/serve/wire binary tensor frame — plus the model lifecycle
// (list/status/load/unload) and the health and stats probes. It is the
// one client implementation behind cosmoflow-loadgen, cosmoflow-infer's
// remote mode, and examples/serving, so no tool hand-rolls request or
// response structs.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/serve/api"
	"repro/internal/serve/wire"
)

// sharedTransport is the connection pool every Client rides by default.
// One pool per process (not per Client) matters to the gateway and the
// load generator, which build one Client per backend: keep-alive
// connections are bounded and reused across all of them instead of each
// Client growing its own unbounded idle set.
var sharedTransport = &http.Transport{
	// Keep http.DefaultTransport's environment-proxy and HTTP/2 behavior:
	// callers that worked through HTTP(S)_PROXY before the shared pool
	// existed must keep working through it.
	Proxy:             http.ProxyFromEnvironment,
	ForceAttemptHTTP2: true,
	DialContext: (&net.Dialer{
		Timeout:   5 * time.Second,
		KeepAlive: 30 * time.Second,
	}).DialContext,
	MaxIdleConns:        256,
	MaxIdleConnsPerHost: 64,
	IdleConnTimeout:     90 * time.Second,
	// Predict bodies are large and already encoded; disable opportunistic
	// compression negotiation rather than pay for it on the hot path.
	DisableCompression: true,
}

// SharedTransport returns the process-wide pooled http.Transport the
// client package dials through, for callers that build their own
// http.Client but still want to share the connection pool.
func SharedTransport() *http.Transport { return sharedTransport }

// Encoding selects the predict request/response body format.
type Encoding string

// Supported encodings. Binary moves a volume as 4 bytes per voxel with no
// float-to-decimal round-trips; JSON is the interop/debugging path.
const (
	JSON   Encoding = "json"
	Binary Encoding = "binary"
)

// ParseEncoding maps a -wire style flag value onto an Encoding.
func ParseEncoding(s string) (Encoding, error) {
	switch Encoding(strings.ToLower(s)) {
	case JSON:
		return JSON, nil
	case Binary:
		return Binary, nil
	}
	return "", fmt.Errorf("client: unknown wire encoding %q (want json or binary)", s)
}

// APIError is a non-2xx answer decoded from the server's error envelope.
type APIError struct {
	StatusCode int
	Code       string
	Message    string
	RequestID  string
	// RetryAfter is the parsed Retry-After header on 429/503 answers
	// (zero when absent) — the gateway's shed responses always carry it.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	msg := fmt.Sprintf("serve API: %d %s: %s", e.StatusCode, e.Code, e.Message)
	if e.RequestID != "" {
		msg += " (request " + e.RequestID + ")"
	}
	return msg
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the whole http.Client (custom transports,
// test doubles). WithHTTPClient and WithTimeout each replace the client,
// so options apply in call order and the last one wins — don't combine
// them.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithTimeout caps every request round-trip (headers through body) while
// keeping the shared pooled transport. Zero means no cap beyond the
// caller's context. Last-wins with WithHTTPClient; see above.
func WithTimeout(d time.Duration) Option {
	return func(c *Client) { c.hc = &http.Client{Transport: sharedTransport, Timeout: d} }
}

// WithEncoding selects the predict body encoding (default Binary).
func WithEncoding(enc Encoding) Option { return func(c *Client) { c.enc = enc } }

// WithAPIKey attaches a tenant (or admin) API key to every request via
// api.HeaderAPIKey — how callers authenticate to cosmoflow-gateway's
// admission control and admin plane. Empty means unauthenticated.
func WithAPIKey(key string) Option { return func(c *Client) { c.apiKey = key } }

// Client talks to one cosmoflow-serve base URL. It is safe for concurrent
// use; the underlying http.Client pools connections.
type Client struct {
	base   string
	hc     *http.Client
	enc    Encoding
	apiKey string
}

// New builds a client for baseURL (e.g. "http://localhost:8080"). All
// clients dial through one process-wide pooled transport; use WithTimeout
// for a per-request deadline or WithHTTPClient to replace the stack.
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base: strings.TrimRight(baseURL, "/"),
		hc:   &http.Client{Transport: sharedTransport},
		enc:  Binary,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Encoding returns the predict body encoding this client negotiates.
func (c *Client) Encoding() Encoding { return c.enc }

// auth stamps the configured API key (if any) onto an outgoing request.
func (c *Client) auth(req *http.Request) {
	if c.apiKey != "" {
		req.Header.Set(api.HeaderAPIKey, c.apiKey)
	}
}

// BaseURL returns the server base URL this client targets.
func (c *Client) BaseURL() string { return c.base }

// EncodePredictRequest renders one predict body in the given encoding and
// returns it with its Content-Type. dims is the volume shape ([C D H W]
// or [D H W]); JSON ignores it beyond a length check. Exposed so load
// generators can pre-encode bodies off their measured path and write
// request files for raw-HTTP tests.
func EncodePredictRequest(enc Encoding, dims []int, voxels []float32) ([]byte, string, error) {
	switch enc {
	case JSON:
		n := 1
		for _, d := range dims {
			n *= d
		}
		if len(dims) > 0 && n != len(voxels) {
			return nil, "", fmt.Errorf("client: dims %v imply %d voxels, got %d", dims, n, len(voxels))
		}
		body, err := json.Marshal(api.PredictRequest{Voxels: voxels})
		if err != nil {
			return nil, "", err
		}
		return body, wire.ContentTypeJSON, nil
	case Binary:
		t, err := wire.FromFloat32(dims, voxels)
		if err != nil {
			return nil, "", err
		}
		var buf bytes.Buffer
		buf.Grow(t.EncodedSize())
		if _, err := t.WriteTo(&buf); err != nil {
			return nil, "", err
		}
		return buf.Bytes(), wire.ContentTypeTensor, nil
	}
	return nil, "", fmt.Errorf("client: unknown encoding %q", enc)
}

// Predict scores one voxel volume of shape dims ([C D H W] or [D H W])
// on the named model ("" selects the server default). Both encodings
// return the identical PredictResponse: the binary path reconstructs it
// from the [2 3] float64 response frame and the X-Cosmoflow-* headers,
// bit-exact in Normalized.
func (c *Client) Predict(ctx context.Context, model string, dims []int, voxels []float32) (*api.PredictResponse, error) {
	body, ct, err := EncodePredictRequest(c.enc, dims, voxels)
	if err != nil {
		return nil, err
	}
	return c.predictBody(ctx, model, body, ct)
}

// PredictEncoded posts a pre-encoded predict body (from
// EncodePredictRequest), keeping encoding cost off a load generator's
// measured path when desired.
func (c *Client) PredictEncoded(ctx context.Context, model string, body []byte, contentType string) (*api.PredictResponse, error) {
	return c.predictBody(ctx, model, body, contentType)
}

// PredictRaw posts a pre-encoded predict body and returns the raw
// *http.Response without consuming it — status, headers, and body exactly
// as the server sent them. This is the gateway's proxy primitive: the
// response streams through to the gateway's client untouched, which is
// what makes the "bit-identical through the gateway" guarantee a
// pass-through property instead of a re-encoding proof. The caller must
// drain and close the body; extra request headers (e.g. the caller's
// X-Request-Id) ride along via hdr.
func (c *Client) PredictRaw(ctx context.Context, model string, body []byte, contentType, accept string, hdr http.Header) (*http.Response, error) {
	if model == "" {
		model = api.DefaultModel
	}
	u := c.base + "/v1/models/" + url.PathEscape(model) + ":predict"
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	c.auth(req)
	req.Header.Set("Content-Type", contentType)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	return c.hc.Do(req)
}

func (c *Client) predictBody(ctx context.Context, model string, body []byte, contentType string) (*api.PredictResponse, error) {
	accept := wire.ContentTypeJSON
	if c.enc == Binary {
		accept = wire.ContentTypeTensor
	}
	resp, err := c.PredictRaw(ctx, model, body, contentType, accept, nil)
	if err != nil {
		return nil, err
	}
	return DecodePredict(resp)
}

// DecodePredict consumes a predict *http.Response (from PredictRaw) into
// the typed answer, handling both response encodings; non-200 statuses
// decode into *APIError. It drains and closes the body either way.
func DecodePredict(resp *http.Response) (*api.PredictResponse, error) {
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	if strings.Contains(resp.Header.Get("Content-Type"), wire.ContentTypeTensor) {
		return decodeTensorPrediction(resp)
	}
	var pr api.PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		return nil, fmt.Errorf("client: decoding predict response: %w", err)
	}
	if pr.Backend == "" {
		pr.Backend = resp.Header.Get(api.HeaderBackend)
	}
	return &pr, nil
}

// decodeTensorPrediction rebuilds the PredictResponse from the binary
// frame (row 0 params, row 1 normalized) and the metadata headers.
func decodeTensorPrediction(resp *http.Response) (*api.PredictResponse, error) {
	t, err := wire.ReadTensor(resp.Body, 1<<20)
	if err != nil {
		return nil, fmt.Errorf("client: decoding predict frame: %w", err)
	}
	if t.DType != wire.Float64 || len(t.Dims) != 2 ||
		t.Dims[0] != api.PredictTensorDims[0] || t.Dims[1] != api.PredictTensorDims[1] {
		return nil, fmt.Errorf("client: unexpected predict frame %v %v (want %v float64)",
			t.Dims, t.DType, api.PredictTensorDims)
	}
	pr := &api.PredictResponse{
		Model:     resp.Header.Get(api.HeaderModel),
		Params:    api.Params{OmegaM: t.F64[0], Sigma8: t.F64[1], NS: t.F64[2]},
		RequestID: resp.Header.Get(api.HeaderRequestID),
		Backend:   resp.Header.Get(api.HeaderBackend),
	}
	for i := 0; i < 3; i++ {
		// The server widened float32 → float64 (exact); narrowing back
		// recovers the original bits, keeping both encodings bit-comparable.
		pr.Normalized[i] = float32(t.F64[3+i])
	}
	if v := resp.Header.Get(api.HeaderBatchSize); v != "" {
		if pr.BatchSize, err = strconv.Atoi(v); err != nil {
			return nil, fmt.Errorf("client: bad %s header %q", api.HeaderBatchSize, v)
		}
	}
	if v := resp.Header.Get(api.HeaderLatencyMs); v != "" {
		if pr.LatencyMs, err = strconv.ParseFloat(v, 64); err != nil || math.IsNaN(pr.LatencyMs) {
			return nil, fmt.Errorf("client: bad %s header %q", api.HeaderLatencyMs, v)
		}
	}
	return pr, nil
}

// ListModels returns every registry entry with status, config, and
// metrics, sorted by name.
func (c *Client) ListModels(ctx context.Context) ([]api.ModelStatus, error) {
	var list api.ModelList
	if err := c.getJSON(ctx, "/v1/models", &list); err != nil {
		return nil, err
	}
	return list.Models, nil
}

// GetModel returns one model's status.
func (c *Client) GetModel(ctx context.Context, name string) (*api.ModelStatus, error) {
	var ms api.ModelStatus
	if err := c.getJSON(ctx, "/v1/models/"+url.PathEscape(name), &ms); err != nil {
		return nil, err
	}
	return &ms, nil
}

// LoadModel loads or hot-swaps a model; on return the new instance is
// ready (the server loads synchronously and builds the replicas first).
func (c *Client) LoadModel(ctx context.Context, name string, spec api.LoadModelRequest) (*api.ModelStatus, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	u := c.base + "/v1/models/" + url.PathEscape(name)
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, u, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	c.auth(req)
	req.Header.Set("Content-Type", wire.ContentTypeJSON)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	var ms api.ModelStatus
	if err := json.NewDecoder(resp.Body).Decode(&ms); err != nil {
		return nil, fmt.Errorf("client: decoding load response: %w", err)
	}
	return &ms, nil
}

// UnloadModel removes a model; its replicas drain in the background while
// in-flight requests finish unaffected.
func (c *Client) UnloadModel(ctx context.Context, name string) error {
	u := c.base + "/v1/models/" + url.PathEscape(name)
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, u, nil)
	if err != nil {
		return err
	}
	c.auth(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	return nil
}

// Health probes readiness. It returns the per-model report for both 200
// (Status "ok") and 503 (Status "unavailable"); other statuses error.
func (c *Client) Health(ctx context.Context) (*api.HealthResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	c.auth(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return nil, decodeError(resp)
	}
	var hr api.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		return nil, fmt.Errorf("client: decoding health response: %w", err)
	}
	return &hr, nil
}

// Stats returns the per-model serving counters.
func (c *Client) Stats(ctx context.Context) (*api.StatsResponse, error) {
	var sr api.StatsResponse
	if err := c.getJSON(ctx, "/stats", &sr); err != nil {
		return nil, err
	}
	return &sr, nil
}

// Roofline returns the per-layer GFLOP/s attribution for every traced
// model (GET /v1/roofline).
func (c *Client) Roofline(ctx context.Context) (*api.RooflineResponse, error) {
	var rr api.RooflineResponse
	if err := c.getJSON(ctx, "/v1/roofline", &rr); err != nil {
		return nil, err
	}
	return &rr, nil
}

func (c *Client) getJSON(ctx context.Context, path string, v any) error {
	return c.doJSON(ctx, http.MethodGet, path, nil, v)
}

// doJSON runs one JSON round trip: method+path with an optional JSON
// request body, decoding a 200 answer into v (nil discards it).
func (c *Client) doJSON(ctx context.Context, method, path string, in, v any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	c.auth(req)
	if in != nil {
		req.Header.Set("Content-Type", wire.ContentTypeJSON)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	if v == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("client: decoding %s response: %w", path, err)
	}
	return nil
}

// ---- gateway admin plane (cosmoflow-gateway only) ----

// ListTenants returns the gateway's admission table, sorted by key.
func (c *Client) ListTenants(ctx context.Context) ([]api.Tenant, error) {
	var tl api.TenantList
	if err := c.getJSON(ctx, "/v1/admin/tenants", &tl); err != nil {
		return nil, err
	}
	return tl.Tenants, nil
}

// PutTenant upserts one tenant into the admission table (hot reload:
// effective for the next request, no restart).
func (c *Client) PutTenant(ctx context.Context, t api.Tenant) error {
	return c.doJSON(ctx, http.MethodPut, "/v1/admin/tenants", t, nil)
}

// DeleteTenant removes a tenant by API key.
func (c *Client) DeleteTenant(ctx context.Context, key string) error {
	return c.doJSON(ctx, http.MethodDelete, "/v1/admin/tenants/"+url.PathEscape(key), nil, nil)
}

// GatewayStats returns cosmoflow-gateway's aggregated GET /stats answer
// (schema cosmoflow-stats/v2 with per-tenant admission counters).
func (c *Client) GatewayStats(ctx context.Context) (*api.GatewayStatsResponse, error) {
	var sr api.GatewayStatsResponse
	if err := c.getJSON(ctx, "/stats", &sr); err != nil {
		return nil, err
	}
	return &sr, nil
}

// decodeError turns a non-2xx answer into an *APIError, falling back to
// the raw body when the envelope does not parse (proxies, panics).
func decodeError(resp *http.Response) error {
	apiErr := &APIError{
		StatusCode: resp.StatusCode,
		RequestID:  resp.Header.Get(api.HeaderRequestID),
	}
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
			apiErr.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var env api.ErrorResponse
	if err := json.Unmarshal(raw, &env); err == nil && env.Error.Message != "" {
		apiErr.Code = env.Error.Code
		apiErr.Message = env.Error.Message
		if env.Error.RequestID != "" {
			apiErr.RequestID = env.Error.RequestID
		}
		return apiErr
	}
	apiErr.Code = http.StatusText(resp.StatusCode)
	apiErr.Message = strings.TrimSpace(string(raw))
	return apiErr
}

// drain consumes and closes a response body so the connection returns to
// the client's keep-alive pool.
func drain(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, body)
	_ = body.Close()
}
