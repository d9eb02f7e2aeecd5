// Command cosmoflow-serve is the inference daemon: it loads a trained
// checkpoint into a replica pool behind a dynamic micro-batcher and serves
// predictions over the versioned v1 HTTP API — the ROADMAP's "serve heavy
// traffic" path on top of the paper's trained network.
//
// Usage:
//
//	cosmoflow-serve -ckpt model.ckpt -dim 16 -base 4 -addr :8080
//
// Endpoints (see DESIGN.md "Serving API v1"):
//
//	POST   /v1/models/{name}:predict  JSON or application/x-cosmoflow-tensor body
//	GET    /v1/models                 model list with status/config/metrics
//	PUT    /v1/models/{name}          load or hot-swap a checkpoint at runtime
//	DELETE /v1/models/{name}          drain + unload
//	GET    /healthz                   readiness (503 until every model is ready)
//	GET    /stats                     request counters, batch sizes, latency quantiles
//	GET    /metrics                   Prometheus text exposition of the same counters
//	GET    /v1/trace                  per-layer forward timings (models loaded with -trace)
//	GET    /v1/roofline               per-layer GFLOP/s attribution (models loaded with -trace)
//
// The listener comes up immediately and the startup model loads
// asynchronously, so /healthz genuinely reports readiness: orchestrators
// (and the e2e suite) poll it until the checkpoint is loaded and the
// replicas are built. The "listening on" log line names the bound
// address, so -addr 127.0.0.1:0 picks a free port.
//
// SIGINT/SIGTERM triggers a graceful shutdown: the listener closes,
// admitted requests drain through their micro-batches, then the replicas
// are released.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/nn"
	"repro/internal/obsv"
	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cosmoflow-serve: ")

	addr := flag.String("addr", ":8080", "listen address")
	ckpt := flag.String("ckpt", "", "checkpoint file written by the trainer (empty: fresh weights, for load testing only)")
	name := flag.String("name", serve.DefaultModel, "model name in the registry")
	dim := flag.Int("dim", 16, "voxel edge length the checkpoint was trained with")
	base := flag.Int("base", 4, "base channel count the checkpoint was trained with")
	channels := flag.Int("channels", 1, "input channels the checkpoint was trained with")
	replicas := flag.Int("replicas", runtime.GOMAXPROCS(0), "concurrent inference replicas (weight-sharing network clones)")
	workers := flag.Int("workers", 1, "compute-pool workers per replica")
	maxBatch := flag.Int("max-batch", 8, "micro-batch size cap")
	maxDelay := flag.Duration("max-delay", 2*time.Millisecond, "micro-batch coalescing deadline")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain budget")
	trace := flag.Bool("trace", false, "record per-layer forward timings (GET /v1/trace and the /stats layers section)")
	debugAddr := flag.String("debug-addr", "", "pprof + /metrics debug listen address, e.g. localhost:6060 (empty: disabled)")
	flag.Parse()

	if *ckpt == "" {
		log.Print("warning: no -ckpt given; serving freshly initialized weights")
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	reg := serve.NewRegistry()
	// Load asynchronously: the API (and its 503-until-ready /healthz) is
	// up while the checkpoint loads and the replicas are built, and more
	// models can arrive later via PUT /v1/models/{name}.
	loadDone := reg.LoadAsync(serve.ModelConfig{
		Name: *name,
		Topology: nn.TopologyConfig{
			InputDim:      *dim,
			InputChannels: *channels,
			BaseChannels:  *base,
			Seed:          1,
		},
		CheckpointPath:    *ckpt,
		Replicas:          *replicas,
		WorkersPerReplica: *workers,
		MaxBatch:          *maxBatch,
		MaxDelay:          *maxDelay,
		Trace:             *trace,
	})
	go func() {
		if err := <-loadDone; err != nil {
			// ErrClosed means the load lost a race with shutdown (or an
			// operator DELETE) — not a startup failure; let the winner
			// finish instead of crash-exiting mid-drain.
			if errors.Is(err, serve.ErrClosed) {
				return
			}
			log.Fatalf("loading startup model: %v", err)
		}
		if m, ok := reg.Get(*name); ok {
			log.Printf("model %q ready: input %v, %d replicas x %d workers, max-batch %d, max-delay %v",
				m.Name(), m.InputShape(), m.Replicas(), *workers, *maxBatch, *maxDelay)
		}
	}()

	srv := serve.NewServer(reg, ln.Addr().String())
	if *debugAddr != "" {
		// The debug listener mounts the same scrape registry as the serving
		// mux's GET /metrics, plus net/http/pprof.
		obsv.StartDebugListener(*debugAddr, srv.MetricsRegistry())
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	log.Printf("listening on %s (v1 API; /healthz turns 200 when the model is ready)", ln.Addr())

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		log.Printf("received %v; draining (budget %v)", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		m, ok := reg.Get(*name)
		if err := srv.Shutdown(ctx); err != nil {
			log.Fatalf("shutdown: %v", err)
		}
		if ok {
			st := m.Stats()
			log.Printf("drained: %d requests served, %d errors, avg batch %.2f, p50 %.2fms, p99 %.2fms",
				st.Requests, st.Errors, st.AvgBatch, st.P50Ms, st.P99Ms)
		}
	case err := <-errCh:
		if err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}
}
