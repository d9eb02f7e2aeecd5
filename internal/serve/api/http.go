package api

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"strings"

	"repro/internal/serve/wire"
)

// The helpers below are the one copy of the envelope discipline both
// servers (internal/serve and internal/gateway) answer with.

// RequestID echoes the caller's X-Request-Id (or mints one) onto the
// response, so every answer — success or error envelope — is traceable
// across client, proxy, and server logs.
func RequestID(w http.ResponseWriter, r *http.Request) string {
	rid := r.Header.Get(HeaderRequestID)
	if rid == "" || len(rid) > 128 {
		var b [8]byte
		_, _ = rand.Read(b[:])
		rid = hex.EncodeToString(b[:])
	}
	w.Header().Set(HeaderRequestID, rid)
	return rid
}

// WriteJSON answers status code with v as the JSON body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", wire.ContentTypeJSON)
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteAPIError emits the typed error envelope. Errors are always JSON,
// whatever encoding the request negotiated for success responses.
func WriteAPIError(w http.ResponseWriter, rid string, status int, code, msg string) {
	WriteJSON(w, status, ErrorResponse{Error: ErrorDetail{
		Code: code, Message: msg, RequestID: rid,
	}})
}

// MethodNotAllowed answers 405 with the route's Allow set, per RFC 9110.
func MethodNotAllowed(w http.ResponseWriter, rid string, allowed ...string) {
	w.Header().Set("Allow", strings.Join(allowed, ", "))
	WriteAPIError(w, rid, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
		"method not allowed; allowed: "+strings.Join(allowed, ", "))
}

// NotFound is the catch-all route: any path no other route claims answers
// 404 with the envelope instead of the mux's text/plain default.
func NotFound(w http.ResponseWriter, r *http.Request) {
	WriteAPIError(w, RequestID(w, r), http.StatusNotFound, CodeNotFound, "no such route: "+r.URL.Path)
}
