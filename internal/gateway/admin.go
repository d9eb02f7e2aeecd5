package gateway

// Admin plane: the /v1/admin/* route group — tenants CRUD. It is an
// explicit control surface next to the tenant-facing data plane
// (DESIGN.md "Serving API v1"): same typed error envelope,
// same 405 + Allow discipline, same X-Request-Id propagation, but
// guarded by the operator key instead of tenant keys, and never subject
// to admission control (an overloaded gateway must still be operable).

import (
	"encoding/json"
	"net/http"
	"strings"

	"repro/internal/serve/api"
)

// authorizeAdmin gates the admin plane on Config.AdminKey. An empty key
// leaves the plane open (single-operator dev mode, matching the open
// data plane when no tenants are configured).
func (g *Gateway) authorizeAdmin(w http.ResponseWriter, r *http.Request, rid string) bool {
	if g.cfg.AdminKey == "" || r.Header.Get(api.HeaderAPIKey) == g.cfg.AdminKey {
		return true
	}
	api.WriteAPIError(w, rid, http.StatusUnauthorized, api.CodeUnauthenticated,
		"admin API requires the operator key in "+api.HeaderAPIKey)
	return false
}

// handleAdmin dispatches /v1/admin/tenants and /v1/admin/tenants/{key}.
func (g *Gateway) handleAdmin(w http.ResponseWriter, r *http.Request) {
	rid := api.RequestID(w, r)
	if !g.authorizeAdmin(w, r, rid) {
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/v1/admin/")
	switch {
	case rest == "tenants":
		g.handleTenants(w, r, rid)
	case strings.HasPrefix(rest, "tenants/"):
		g.handleTenantItem(w, r, rid, strings.TrimPrefix(rest, "tenants/"))
	default:
		api.WriteAPIError(w, rid, http.StatusNotFound, api.CodeNotFound, "no such route: "+r.URL.Path)
	}
}

// handleTenants answers GET (list) and PUT (upsert one tenant — the hot
// reload path: effective for the next request, no restart).
func (g *Gateway) handleTenants(w http.ResponseWriter, r *http.Request, rid string) {
	switch r.Method {
	case http.MethodGet:
		api.WriteJSON(w, http.StatusOK, api.TenantList{Tenants: g.tenants.list()})
	case http.MethodPut:
		var spec api.Tenant
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&spec); err != nil {
			api.WriteAPIError(w, rid, http.StatusBadRequest, api.CodeInvalidArgument, "decoding tenant: "+err.Error())
			return
		}
		if err := g.tenants.upsert(spec); err != nil {
			api.WriteAPIError(w, rid, http.StatusBadRequest, api.CodeInvalidArgument, err.Error())
			return
		}
		api.WriteJSON(w, http.StatusOK, api.TenantList{Tenants: g.tenants.list()})
	default:
		api.MethodNotAllowed(w, rid, http.MethodGet, http.MethodPut)
	}
}

// handleTenantItem answers DELETE /v1/admin/tenants/{key}.
func (g *Gateway) handleTenantItem(w http.ResponseWriter, r *http.Request, rid, key string) {
	if r.Method != http.MethodDelete {
		api.MethodNotAllowed(w, rid, http.MethodDelete)
		return
	}
	if !g.tenants.remove(key) {
		api.WriteAPIError(w, rid, http.StatusNotFound, api.CodeNotFound, "unknown tenant key")
		return
	}
	api.WriteJSON(w, http.StatusOK, api.TenantList{Tenants: g.tenants.list()})
}
