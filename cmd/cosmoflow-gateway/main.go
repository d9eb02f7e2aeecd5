// Command cosmoflow-gateway is the cluster serving daemon: one
// v1-compatible endpoint fronting N cosmoflow-serve backends with
// health-driven routing, retry plus circuit-breaker failover,
// scatter-gather batch predicts, and model-lifecycle fan-out (see
// internal/gateway).
//
// Usage:
//
//	cosmoflow-gateway -addr :8090 \
//	    -backends http://h1:8080,http://h2:8080,http://h3:8080 \
//	    -policy least-outstanding
//
// The backend list is the whole pool: membership is fixed for the
// gateway's lifetime, and health probes only move members between
// routable and ejected.
//
// The gateway is also the multi-tenant front door: -tenants seeds
// per-API-key rate limits and priority classes, and bounded priority
// queues shed overload with 429 + Retry-After before any backend sees it:
//
//	cosmoflow-gateway -addr :8090 -backends http://h1:8080,http://h2:8080 \
//	    -tenants tenants.json -admin-key s3cret
//
// Endpoints (DESIGN.md "Cluster serving" and "Serving API v1"):
//
//	POST   /v1/models/{name}:predict  proxied single volume, or scatter-gather
//	                                  batch ([N C D H W] frame / JSON {"batch"})
//	GET    /v1/models[/{name}]        pool-wide aggregated model view
//	PUT    /v1/models/{name}          load broadcast to every reachable backend
//	DELETE /v1/models/{name}          unload broadcast
//	GET    /v1/admin/tenants          admin plane: tenant table
//	PUT    /v1/admin/tenants          upsert one tenant (hot-reloaded)
//	DELETE /v1/admin/tenants/{key}    remove a tenant
//	GET    /healthz                   503 until ≥1 backend is ready per model
//	GET    /stats                     cosmoflow-stats/v2: routing counters,
//	                                  per-backend + per-tenant + admission view
//	GET    /metrics                   Prometheus text exposition of the same counters
//
// /healthz follows the same readiness contract as a single backend, so
// orchestrators and smoke scripts reuse one poll for both tiers.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/gateway"
	"repro/internal/obsv"
	"repro/internal/serve/api"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cosmoflow-gateway: ")

	addr := flag.String("addr", ":8090", "listen address")
	backends := flag.String("backends", "", "comma-separated cosmoflow-serve base URLs (required)")
	policy := flag.String("policy", gateway.PolicyLeastOutstanding,
		"routing policy: least-outstanding or consistent-hash")
	probeInterval := flag.Duration("probe-interval", 500*time.Millisecond, "backend health/placement probe period")
	probeTimeout := flag.Duration("probe-timeout", 2*time.Second, "one probe's round-trip budget")
	backendTimeout := flag.Duration("backend-timeout", 60*time.Second, "one proxied request's round-trip budget")
	ejectAfter := flag.Int("eject-after", 3, "consecutive transport failures that eject a backend")
	readmitAfter := flag.Duration("readmit-after", 2*time.Second, "cooldown before probing an ejected backend for re-admission")
	retries := flag.Int("retries", 2, "additional backends a failed predict fails over to (negative disables failover)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain budget")
	trace := flag.Bool("trace", false, "record per-request phase attribution and per-backend upstream spans (GET /v1/trace)")
	debugAddr := flag.String("debug-addr", "", "pprof + /metrics debug listen address, e.g. localhost:6061 (empty: disabled)")

	tenantsFile := flag.String("tenants", "", "JSON tenant table file ({\"tenants\":[{\"key\",\"name\",\"class\",\"rate_per_sec\",\"burst\"}]}); empty leaves the data plane open")
	adminKey := flag.String("admin-key", "", "operator key guarding /v1/admin/* (empty leaves the admin plane open)")
	admCapacity := flag.Int("admission-capacity", 64, "concurrent requests admitted past the front door")
	queueDepth := flag.Int("queue-depth", 64, "standard-class admission queue depth (premium 2x, best-effort half)")
	queueTimeout := flag.Duration("queue-timeout", 5*time.Second, "max time a request may wait in the admission queue before 429")
	flag.Parse()

	if *backends == "" {
		log.Fatal("-backends is required (comma-separated cosmoflow-serve base URLs)")
	}
	var tenants []api.Tenant
	if *tenantsFile != "" {
		data, err := os.ReadFile(*tenantsFile)
		if err != nil {
			log.Fatalf("-tenants: %v", err)
		}
		var tl api.TenantList
		if err := json.Unmarshal(data, &tl); err != nil {
			log.Fatalf("-tenants %s: %v", *tenantsFile, err)
		}
		tenants = tl.Tenants
	}
	gw, err := gateway.New(gateway.Config{
		Backends:       strings.Split(*backends, ","),
		Policy:         *policy,
		ProbeInterval:  *probeInterval,
		ProbeTimeout:   *probeTimeout,
		BackendTimeout: *backendTimeout,
		EjectAfter:     *ejectAfter,
		ReadmitAfter:   *readmitAfter,
		Retries:        *retries,
		Trace:          *trace,
		Tenants:        tenants,
		AdminKey:       *adminKey,
		Admission: gateway.AdmissionConfig{
			Capacity:     *admCapacity,
			QueueDepth:   *queueDepth,
			QueueTimeout: *queueTimeout,
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	srv := gateway.NewServer(gw, *addr)
	if *debugAddr != "" {
		// The debug listener mounts the same scrape registry as the proxy
		// mux's GET /metrics, plus net/http/pprof.
		obsv.StartDebugListener(*debugAddr, gw.MetricsRegistry())
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("listening on %s, fronting %d backends, policy %s (healthz turns 200 when every model has a ready backend)",
		*addr, len(gw.Pool().Backends()), *policy)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		log.Printf("received %v; draining (budget %v)", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Fatalf("shutdown: %v", err)
		}
	case err := <-errCh:
		if err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}
}
