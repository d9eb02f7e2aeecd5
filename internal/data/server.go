package data

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"repro/internal/obsv"
)

// Handler serves a dataset directory over HTTP — the cosmoflow-shardd
// core. Routes:
//
//	GET /manifest.json   the dataset manifest
//	GET /shards/{file}   one shard's bytes; Range requests supported, so a
//	                     client can resume a died transfer mid-shard
//	GET /healthz         200 once the manifest is readable
//	GET /stats           plain-text transfer counters
//
// Only files the manifest lists are served: the manifest is the dataset's
// public surface, and a bare http.FileServer would also leak temp files
// and anything else in the directory.
type Handler struct {
	dir      string
	requests atomic.Int64
	shardHit atomic.Int64
	notFound atomic.Int64
	metrics  *obsv.MetricsRegistry
}

// NewHandler serves the dataset under dir.
func NewHandler(dir string) *Handler {
	h := &Handler{dir: dir}
	h.metrics = h.newMetricsRegistry()
	return h
}

// newMetricsRegistry exposes the transfer counters behind GET /metrics —
// the same numbers as the plain-text /stats route, in the exposition
// format the rest of the fleet scrapes.
func (h *Handler) newMetricsRegistry() *obsv.MetricsRegistry {
	r := obsv.NewMetricsRegistry()
	one := func(read func() int64) func() []obsv.Sample {
		return func() []obsv.Sample { return []obsv.Sample{{Value: float64(read())}} }
	}
	r.CounterFunc("cosmoflow_shardd_requests_total", "HTTP requests handled", one(h.requests.Load))
	r.CounterFunc("cosmoflow_shardd_shards_served_total", "shard files served", one(h.shardHit.Load))
	r.CounterFunc("cosmoflow_shardd_not_found_total", "requests for unknown paths or unlisted shards", one(h.notFound.Load))
	r.GaugeFunc("cosmoflow_shardd_manifest_ok", "1 when the manifest is readable", func() []obsv.Sample {
		v := 0.0
		if _, err := h.manifest(); err == nil {
			v = 1
		}
		return []obsv.Sample{{Value: v}}
	})
	return r
}

// MetricsRegistry returns the handler's scrape registry, so the daemon can
// mount the same families on its -debug-addr listener.
func (h *Handler) MetricsRegistry() *obsv.MetricsRegistry { return h.metrics }

// manifest loads the manifest fresh per request, so a datagen re-run that
// atomically replaces it is picked up without restarting the server.
func (h *Handler) manifest() (*Manifest, error) { return LoadManifest(h.dir) }

func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.requests.Add(1)
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	switch {
	case r.URL.Path == "/healthz":
		if _, err := h.manifest(); err != nil {
			http.Error(w, "manifest unavailable", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	case r.URL.Path == "/stats":
		fmt.Fprintf(w, "requests %d\nshards_served %d\nnot_found %d\n",
			h.requests.Load(), h.shardHit.Load(), h.notFound.Load())
	case r.URL.Path == "/metrics":
		h.metrics.Handler().ServeHTTP(w, r)
	case r.URL.Path == "/manifest.json":
		if _, err := h.manifest(); err != nil {
			h.notFound.Add(1)
			http.Error(w, "manifest unavailable", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		http.ServeFile(w, r, filepath.Join(h.dir, ManifestName))
	case strings.HasPrefix(r.URL.Path, "/shards/"):
		h.serveShard(w, r, strings.TrimPrefix(r.URL.Path, "/shards/"))
	default:
		h.notFound.Add(1)
		http.NotFound(w, r)
	}
}

// serveShard serves one manifest-listed shard file; http.ServeFile
// provides Range and If-Range handling.
func (h *Handler) serveShard(w http.ResponseWriter, r *http.Request, name string) {
	m, err := h.manifest()
	if err != nil {
		http.Error(w, "manifest unavailable", http.StatusServiceUnavailable)
		return
	}
	if !bareFilename(name) || !manifestLists(m, name) {
		h.notFound.Add(1)
		http.NotFound(w, r)
		return
	}
	path := filepath.Join(h.dir, name)
	if _, err := os.Stat(path); err != nil {
		h.notFound.Add(1)
		http.NotFound(w, r)
		return
	}
	h.shardHit.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	http.ServeFile(w, r, path)
}

// manifestLists reports whether any split contains the shard file.
func manifestLists(m *Manifest, name string) bool {
	for _, shards := range m.Splits {
		for _, s := range shards {
			if s.File == name {
				return true
			}
		}
	}
	return false
}
