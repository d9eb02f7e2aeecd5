package gateway

// End-to-end tests for the multi-tenant front door and the admin plane:
// real backends, real gateway, requests through the public HTTP surface
// or the typed client — the same paths production traffic takes.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"testing"
	"time"

	"repro/internal/serve/api"
	"repro/internal/serve/client"
	"repro/internal/serve/wire"
)

// decodeEnvelope parses a typed error answer.
func decodeEnvelope(t testing.TB, resp *http.Response) api.ErrorResponse {
	t.Helper()
	var env api.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decoding error envelope: %v", err)
	}
	return env
}

// TestTenantAuthAndRateLimit covers the data-plane front door end to
// end: configuring tenants turns authentication on (401 with the typed
// envelope for unknown keys), admitted requests carry the tenant header,
// and an over-limit tenant gets 429 + Retry-After with the same envelope
// — before any backend sees the request.
func TestTenantAuthAndRateLimit(t *testing.T) {
	ckpt := testCheckpoint(t)
	b := startBackend(t, ckpt)
	_, srv := testGateway(t, Config{
		Tenants: []api.Tenant{
			{Key: "prem-key", Name: "alpha", Class: api.ClassPremium},
			{Key: "slow-key", Name: "beta", Class: api.ClassBestEffort, RatePerSec: 0.5, Burst: 1},
		},
	}, b.url)
	waitReady(t, srv.URL)
	body := binBody(t, testVoxels(t, 1, 1)[0])

	post := func(key string) *http.Response {
		req, err := http.NewRequest(http.MethodPost,
			srv.URL+"/v1/models/"+api.DefaultModel+":predict", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", wire.ContentTypeTensor)
		if key != "" {
			req.Header.Set(api.HeaderAPIKey, key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	// No key → 401 with the envelope; the backend never saw it.
	resp := post("")
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("keyless predict = %d, want 401", resp.StatusCode)
	}
	if env := decodeEnvelope(t, resp); env.Error.Code != api.CodeUnauthenticated {
		t.Fatalf("401 code = %q, want %s", env.Error.Code, api.CodeUnauthenticated)
	}

	// Valid key → 200, tagged with the tenant's display name.
	resp = post("prem-key")
	readAll(t, resp, http.StatusOK)
	if got := resp.Header.Get(api.HeaderTenant); got != "alpha" {
		t.Fatalf("%s = %q, want alpha", api.HeaderTenant, got)
	}

	// The limited tenant's burst is 1: the second request inside the
	// refill window sheds with 429 + Retry-After + RATE_LIMITED.
	resp = post("slow-key")
	readAll(t, resp, http.StatusOK)
	resp = post("slow-key")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit predict = %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want whole seconds >= 1", resp.Header.Get("Retry-After"))
	}
	if env := decodeEnvelope(t, resp); env.Error.Code != api.CodeRateLimited {
		t.Fatalf("429 code = %q, want %s", env.Error.Code, api.CodeRateLimited)
	}

	// The typed client surfaces the same decision as APIError.RetryAfter.
	cl := client.New(srv.URL, client.WithAPIKey("slow-key"), client.WithTimeout(5*time.Second))
	_, err = cl.PredictEncoded(context.Background(), api.DefaultModel, body, wire.ContentTypeTensor)
	apiErr, ok := err.(*client.APIError)
	if !ok {
		t.Fatalf("typed client over-limit error = %v, want *APIError", err)
	}
	if apiErr.StatusCode != http.StatusTooManyRequests || apiErr.RetryAfter < time.Second {
		t.Fatalf("APIError = status %d retryAfter %v, want 429 with >= 1s", apiErr.StatusCode, apiErr.RetryAfter)
	}
}

// TestAdminPlane exercises /v1/admin/* through the typed client — the
// only sanctioned consumer: operator-key gating, tenant CRUD with hot
// reload, and the v2 stats schema with per-tenant counters.
func TestAdminPlane(t *testing.T) {
	ckpt := testCheckpoint(t)
	b := startBackend(t, ckpt)
	_, srv := testGateway(t, Config{AdminKey: "op-secret"}, b.url)
	waitReady(t, srv.URL)
	ctx := context.Background()

	// Wrong (or missing) operator key → 401 with the typed envelope.
	bad := client.New(srv.URL, client.WithTimeout(5*time.Second))
	_, err := bad.ListTenants(ctx)
	apiErr, ok := err.(*client.APIError)
	if !ok || apiErr.StatusCode != http.StatusUnauthorized || apiErr.Code != api.CodeUnauthenticated {
		t.Fatalf("keyless admin call: %v, want 401 %s", err, api.CodeUnauthenticated)
	}

	cl := client.New(srv.URL, client.WithAPIKey("op-secret"), client.WithTimeout(5*time.Second))
	if tenants, err := cl.ListTenants(ctx); err != nil || len(tenants) != 0 {
		t.Fatalf("initial tenants = %v, %v; want empty", tenants, err)
	}

	// Upsert is the hot-reload path: effective for the next request.
	if err := cl.PutTenant(ctx, api.Tenant{Key: "k1", Name: "one", Class: api.ClassPremium}); err != nil {
		t.Fatal(err)
	}
	tenants, err := cl.ListTenants(ctx)
	if err != nil || len(tenants) != 1 || tenants[0].Name != "one" || tenants[0].Class != api.ClassPremium {
		t.Fatalf("tenants after put = %+v, %v", tenants, err)
	}
	// An invalid class is rejected with INVALID_ARGUMENT.
	err = cl.PutTenant(ctx, api.Tenant{Key: "k2", Class: "platinum"})
	if apiErr, ok := err.(*client.APIError); !ok || apiErr.Code != api.CodeInvalidArgument {
		t.Fatalf("bad class put: %v, want %s", err, api.CodeInvalidArgument)
	}
	// The data plane now requires keys (table non-empty) — and accepts
	// the configured one.
	body := binBody(t, testVoxels(t, 1, 3)[0])
	_, err = bad.PredictEncoded(ctx, api.DefaultModel, body, wire.ContentTypeTensor)
	if apiErr, ok := err.(*client.APIError); !ok || apiErr.StatusCode != http.StatusUnauthorized {
		t.Fatalf("keyless predict after first tenant: %v, want 401", err)
	}
	dataCl := client.New(srv.URL, client.WithAPIKey("k1"), client.WithTimeout(5*time.Second))
	if _, err := dataCl.PredictEncoded(ctx, api.DefaultModel, body, wire.ContentTypeTensor); err != nil {
		t.Fatalf("configured tenant refused: %v", err)
	}

	// Stats v2: schema tag, admission block, and the tenant's counters.
	sr, err := cl.GatewayStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Schema != api.StatsSchemaV2 {
		t.Fatalf("stats schema = %q, want %s", sr.Schema, api.StatsSchemaV2)
	}
	if sr.Admission == nil || sr.Admission.Capacity <= 0 {
		t.Fatalf("stats admission block = %+v", sr.Admission)
	}
	found := false
	for _, ts := range sr.Tenants {
		if ts.Name == "one" && ts.Admitted >= 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("stats tenants = %+v, want tenant one with admitted >= 1", sr.Tenants)
	}

	// Delete closes the loop.
	if err := cl.DeleteTenant(ctx, "k1"); err != nil {
		t.Fatal(err)
	}
	if tenants, err := cl.ListTenants(ctx); err != nil || len(tenants) != 0 {
		t.Fatalf("tenants after delete = %v, %v; want empty", tenants, err)
	}

	// Route discipline on the admin plane: 405 + Allow and X-Request-Id,
	// same as the data plane.
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/admin/tenants", bytes.NewReader(nil))
	req.Header.Set(api.HeaderAPIKey, "op-secret")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/admin/tenants = %d, want 405", resp.StatusCode)
	}
	if resp.Header.Get("Allow") == "" || resp.Header.Get(api.HeaderRequestID) == "" {
		t.Fatalf("admin 405 missing Allow (%q) or request id (%q)",
			resp.Header.Get("Allow"), resp.Header.Get(api.HeaderRequestID))
	}
}
