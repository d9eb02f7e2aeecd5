# Tier-1 verification plus formatting/vet gates. `make check` is the fast
# everything-must-pass target for pre-commit hooks; `make ci` mirrors
# .github/workflows/ci.yml exactly (every CI job runs one of these
# targets), so local and CI runs cannot drift.

GO ?= go

.PHONY: check ci fmt vet build test purego race bench bench-smoke serve-smoke api-smoke dist-smoke data-smoke fuzz-smoke gateway-smoke tenancy-smoke metrics-smoke timeline-smoke

check: fmt vet build test

ci: fmt vet build test purego race fuzz-smoke bench-smoke serve-smoke api-smoke dist-smoke data-smoke gateway-smoke tenancy-smoke metrics-smoke timeline-smoke

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The pure-Go fallback file set: the kernels' packages tested without
# their amd64 assembly (the purego tag), and the whole tree vetted for an
# architecture that has none, so the fallback builds and passes.
purego:
	$(GO) test -tags purego ./internal/nn ./internal/train
	GOARCH=arm64 $(GO) vet ./...

# Race-detect the concurrency-bearing packages: the serving subsystem
# (replica pools, micro-batcher), the gateway (probe loops, retries,
# scatter-gather), the batched kernels (shared worker pools,
# recycled buffers), the communication layer (helper-team collectives,
# TCP reader/heartbeat goroutines), the trainer (its overlap-comm
# goroutine and step loop share a timeline's ring and span atomics), the
# optimizer (its Step runs on the rank's worker pool), the worker pool,
# the streaming data loader (shard producer and decode goroutines), the
# typed serving client (pooled transport), the
# observability package itself, the tensor buffer pool (shared by the
# loader's decode workers and InferBatch), the wire codec, and the
# benchmark driver (every workload's ranks, load generators and serving
# stack in one process).
race:
	$(GO) test -race ./internal/serve ./internal/serve/client ./internal/gateway ./internal/nn ./internal/comm ./internal/dist ./internal/train ./internal/optim ./internal/parallel ./internal/data ./internal/obsv ./internal/tensor ./internal/serve/wire ./benchmark

# Short fuzz of the byte decoders — the wire codec (header-bounded size
# checks, truncated frames, dims/dtype abuse), the training-timeline
# gather payload (bad magic/version, unknown phases, event counts the
# payload cannot hold), the data manifest (fields the loader relies on,
# lossless re-encoding), the TFRecord sample payload (dim bound,
# voxel count, canonical encoding) and the dist transport's frames (1-d
# float32 bodies only, exact lengths, canonical re-encoding) — and of the conv kernels' geometry (forward,
# batched inference and backward against float64 loop nests over random
# shapes, strides and padding). Seconds, not minutes — the corpus seeds
# cover the known-nasty shapes and CI just shakes for regressions.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzReadTensor -fuzztime 10s ./internal/serve/wire
	$(GO) test -run '^$$' -fuzz FuzzDecodeTimeline -fuzztime 10s ./internal/obsv
	$(GO) test -run '^$$' -fuzz FuzzConvGeometry -fuzztime 10s ./internal/nn
	$(GO) test -run '^$$' -fuzz FuzzParseManifest -fuzztime 10s ./internal/data
	$(GO) test -run '^$$' -fuzz FuzzDecodeSample -fuzztime 10s ./internal/tfrecord
	$(GO) test -run '^$$' -fuzz FuzzReadFrame -fuzztime 10s ./internal/dist

# Full benchmark sweep (minutes); see EXPERIMENTS.md for the record.
bench:
	$(GO) test -run xxx -bench . -benchtime 1x .

# One-pass serving, batched-inference, per-layer conv-forward,
# training-step, optimizer-step and TCP-allreduce benchmarks: a smoke
# signal that the hot paths still run, cheap enough for every CI run.
bench-smoke:
	$(GO) test -run xxx -bench 'Serving|InferBatch|Conv3DForward|TrainStep' -benchtime 1x .
	$(GO) test -run xxx -bench AdamLARCStep -benchtime 1x ./internal/optim
	$(GO) test -run xxx -bench AllReduceTCP -benchtime 1x ./internal/dist

# End-to-end serving smoke: daemon + >=64-request concurrent load, then a
# graceful SIGTERM drain (the ISSUE acceptance run).
serve-smoke:
	$(GO) build -o /tmp/cosmoflow-serve ./cmd/cosmoflow-serve
	$(GO) build -o /tmp/cosmoflow-loadgen ./cmd/cosmoflow-loadgen
	/tmp/cosmoflow-serve -addr 127.0.0.1:18080 -dim 16 -base 4 & \
		pid=$$!; \
		for i in $$(seq 1 50); do \
			curl -sf http://127.0.0.1:18080/healthz >/dev/null 2>&1 && break; \
			sleep 0.2; \
		done; \
		/tmp/cosmoflow-loadgen -addr http://127.0.0.1:18080 -n 128 -c 8 -dim 16; \
		rc=$$?; kill -TERM $$pid; wait $$pid; exit $$rc

# v1 API smoke: daemon + curl over both wire encodings, asserting status
# codes on predict, model lifecycle (list/load/unload), and the error
# surface (scripts/api_smoke.sh).
api-smoke:
	$(GO) build -o /tmp/cosmoflow-serve ./cmd/cosmoflow-serve
	$(GO) build -o /tmp/cosmoflow-loadgen ./cmd/cosmoflow-loadgen
	sh scripts/api_smoke.sh

# Distributed training smoke: a 4-process TCP world must reproduce the
# in-process run's losses bit-for-bit, and a mid-run world kill must
# relaunch and resume from the checkpoint (scripts/dist_smoke.sh).
dist-smoke:
	$(GO) build -o /tmp/cosmoflow-train ./cmd/cosmoflow-train
	sh scripts/dist_smoke.sh

# Streaming-data smoke: datagen writes a sharded TFRecord dataset with a
# manifest, then a 2-process world streams it — locally and over HTTP from
# cosmoflow-shardd — bit-identical to the in-process streaming run, and a
# killed world resumes from its checkpoint (scripts/data_smoke.sh).
data-smoke:
	$(GO) build -o /tmp/cosmoflow-train ./cmd/cosmoflow-train
	$(GO) build -o /tmp/cosmoflow-datagen ./cmd/cosmoflow-datagen
	$(GO) build -o /tmp/cosmoflow-shardd ./cmd/cosmoflow-shardd
	sh scripts/data_smoke.sh

# Fleet scrape-surface smoke: all three daemons up, every GET /metrics
# parser-validated as Prometheus text exposition (cosmoflow-metrics wraps
# obsv.ParseExposition), then traffic through each and known counters
# asserted to have moved (scripts/metrics_smoke.sh).
metrics-smoke:
	$(GO) build -o /tmp/cosmoflow-serve ./cmd/cosmoflow-serve
	$(GO) build -o /tmp/cosmoflow-gateway ./cmd/cosmoflow-gateway
	$(GO) build -o /tmp/cosmoflow-shardd ./cmd/cosmoflow-shardd
	$(GO) build -o /tmp/cosmoflow-datagen ./cmd/cosmoflow-datagen
	$(GO) build -o /tmp/cosmoflow-loadgen ./cmd/cosmoflow-loadgen
	$(GO) build -o /tmp/cosmoflow-metrics ./cmd/cosmoflow-metrics
	sh scripts/metrics_smoke.sh

# Training-timeline smoke: a traced 4-process world with an injected 10ms
# straggler must train bit-identically to the untraced baseline, its trace
# must validate as Chrome trace-event JSON, and the straggler report must
# name the slowed rank (scripts/timeline_smoke.sh).
timeline-smoke:
	$(GO) build -o /tmp/cosmoflow-train ./cmd/cosmoflow-train
	$(GO) build -o /tmp/cosmoflow-tracecat ./cmd/cosmoflow-tracecat
	sh scripts/timeline_smoke.sh

# Cluster serving smoke: 3 backends + gateway, predict over both
# encodings (bit-identity against a direct backend), lifecycle fan-out,
# then kill one backend under load and assert zero client-visible
# failures after ejection (scripts/gateway_smoke.sh).
gateway-smoke:
	$(GO) build -o /tmp/cosmoflow-serve ./cmd/cosmoflow-serve
	$(GO) build -o /tmp/cosmoflow-gateway ./cmd/cosmoflow-gateway
	$(GO) build -o /tmp/cosmoflow-loadgen ./cmd/cosmoflow-loadgen
	$(GO) build -o /tmp/cosmoflow-gwctl ./cmd/cosmoflow-gwctl
	sh scripts/gateway_smoke.sh

# Multi-tenant smoke: a 3-class overload must keep premium p99 flat
# while best-effort sheds with 429s and nothing 5xxes, and the admin
# plane answers only through cosmoflow-gwctl (scripts/tenancy_smoke.sh).
tenancy-smoke:
	$(GO) build -o /tmp/cosmoflow-serve ./cmd/cosmoflow-serve
	$(GO) build -o /tmp/cosmoflow-gateway ./cmd/cosmoflow-gateway
	$(GO) build -o /tmp/cosmoflow-loadgen ./cmd/cosmoflow-loadgen
	$(GO) build -o /tmp/cosmoflow-gwctl ./cmd/cosmoflow-gwctl
	sh scripts/tenancy_smoke.sh
