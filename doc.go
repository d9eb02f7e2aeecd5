// Package repro is a from-scratch Go reproduction of "CosmoFlow: Using Deep
// Learning to Learn the Universe at Scale" (Mathuriya et al., SC18).
//
// The library implements the paper's full stack with only the Go standard
// library: a 3D convolutional neural network with a direct-convolution
// row kernel, four output channels per pass (internal/nn, internal/tensor),
// the Adam+LARC optimizer with polynomial decay (internal/optim), fully
// synchronous data-parallel training over an MPI-like world with
// ring/recursive-doubling/parameter-server collectives (internal/comm,
// internal/train) whose point-to-point layer is a pluggable Transport —
// in-process channel mesh or the multi-process TCP data plane of
// internal/dist (rank-0 rendezvous, CFT1-framed collectives, heartbeat
// peer-death detection, and checkpoint-resume fault tolerance behind
// cosmoflow-train's -dist/-launch modes, bit-identical to the in-process
// world at the same seed), the TFRecord codec (internal/tfrecord), a
// streaming dataset subsystem
// (internal/data): checksummed shard manifests written by
// cosmoflow-datagen, a double-buffered prefetch loader with parallel
// decode feeding training shard-by-shard, rank-disjoint per-epoch shard
// assignment keeping streamed runs bit-identical across runs, transports,
// and checkpoint resume, and the cosmoflow-shardd HTTP shard server with
// Range-resuming transfers for remote staging (cosmoflow-train
// -stream/-data-url), a synthetic cosmology data generator
// built on a pure-Go 3D FFT (internal/cosmo, internal/fft), a calibrated
// cluster model that regenerates the paper's 8192-node scaling results
// (internal/hpcsim), the traditional power-spectrum statistics baseline
// (internal/stats), and a concurrent batched inference serving subsystem —
// model registry with runtime load/hot-swap/unload lifecycle, replica
// pools of weight-sharing network clones, dynamic micro-batching into true
// batched forward passes (nn.InferBatch: one forward kernel per layer over
// a (sample × task) index space, recycled activation buffers,
// bit-identical at every batch size), and
// a versioned v1 HTTP API (internal/serve) with content-negotiated
// encodings: JSON or the binary tensor wire format (internal/serve/wire,
// ~50-90x faster than JSON per request), shared DTOs (internal/serve/api),
// and a typed Go client over both encodings (internal/serve/client) —
// behind the cosmoflow-serve daemon, the cosmoflow-loadgen load generator
// (per-backend spread reporting, -sweep concurrency tables), and
// cosmoflow-infer's remote scoring mode. Above the single-process daemon
// sits the cluster serving tier (internal/gateway, cosmoflow-gateway):
// one v1-compatible endpoint fronting N backends with health-probed pool
// membership and circuit-breaker ejection, pluggable routing
// (least-outstanding or consistent-hash-by-model), retry on a backend not
// yet tried, scatter-gather batch predicts reassembled bit-identically in
// order, and model-lifecycle fan-out with per-backend aggregation. The
// whole stack is threaded with the opt-in observability substrate
// (internal/obsv): lock-free timing spans giving per-layer forward
// breakdowns (GET /v1/trace and the /stats layers section on
// cosmoflow-serve -trace), one per-rank training timeline that times every
// step phase and collective (obsv.Timeline, attached with
// train.Config.Timeline and Comm.SetTimeline, scraped through its
// per-phase spans), and per-request phase attribution on the gateway
// (queue wait vs upstream vs gather, keyed by X-Request-Id). Every
// daemon exports the same counters as Prometheus text exposition on
// GET /metrics (obsv.MetricsRegistry; parsed with obsv.ParseExposition
// by the e2e suite), per-layer GFLOP/s roofline attribution joins
// analytic FLOP counts with traced wall time (GET /v1/roofline on
// cosmoflow-serve -trace), and net/http/pprof plus /metrics ride on a
// separate -debug-addr listener on all four daemons.
//
// See DESIGN.md for the system inventory, the "Serving API v1" contract
// (routes, wire-format layout, versioning/deprecation policy), the
// "Cluster serving" tier (pool states, routing policies, retry rules,
// the scatter-gather bit-identity argument), and the CI pipeline
// (.github/workflows/ci.yml, mirrored by `make ci`: fmt, vet, build,
// test, race on the concurrency-bearing packages, the decoder and conv
// fuzz smoke, the bench smoke, and `make e2e`, the end-to-end suite in
// e2e/ that runs every command as a built binary),
// EXPERIMENTS.md for the paper-versus-measured record of every table and
// figure, bench_test.go for the per-operator `go test -bench` suite that
// regenerates them, and benchmark/ for the end-to-end instrument that
// performance claims are made through.
package repro
