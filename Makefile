# Tier-1 verification plus formatting/vet gates, and `make e2e`, the one
# end-to-end suite over the built commands. `make check` is the fast
# everything-must-pass target for pre-commit hooks; `make ci` mirrors
# .github/workflows/ci.yml exactly (every CI job runs one of these
# targets), so local and CI runs cannot drift.

GO ?= go

.PHONY: check ci fmt vet build test purego race bench bench-smoke fuzz-smoke e2e

check: fmt vet build test

ci: fmt vet build test purego race fuzz-smoke bench-smoke e2e

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The e2e suite's files carry a build tag, so they are vetted with it too.
vet:
	$(GO) vet ./...
	$(GO) vet -tags e2e ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The pure-Go fallback file set: the kernels' packages tested without
# their amd64 assembly (the purego tag), and the whole tree vetted for an
# architecture that has none, so the fallback builds and passes.
purego:
	$(GO) test -tags purego ./internal/nn ./internal/optim ./internal/train
	GOARCH=arm64 $(GO) vet ./...

# Race-detect the concurrency-bearing packages: the serving subsystem
# (replica pools, micro-batcher), the gateway (probe loops, retries,
# scatter-gather), the batched kernels (shared worker pools,
# recycled buffers), the communication layer (channel-mesh collectives,
# TCP reader/heartbeat goroutines), the trainer (its overlap-comm
# goroutine and step loop share a timeline's ring and span atomics), the
# optimizer (its Step runs on the rank's worker pool), the worker pool,
# the streaming data loader (shard producer and decode goroutines), the
# typed serving client (pooled transport), the
# observability package itself, the tensor buffer pool (shared by the
# loader's decode workers and InferBatch), the wire codec, and the
# benchmark driver (every workload's ranks, load generators and serving
# stack in one process). -count=1 reruns every package, so a repeat run
# on an unchanged tree can still catch a flake.
race:
	$(GO) test -race -count=1 ./internal/serve ./internal/serve/client ./internal/gateway ./internal/nn ./internal/comm ./internal/dist ./internal/train ./internal/optim ./internal/parallel ./internal/data ./internal/obsv ./internal/tensor ./internal/serve/wire ./benchmark

# Short fuzz of the byte decoders — the wire codec (header-bounded size
# checks, truncated frames, dims/dtype abuse), the training-timeline
# gather payload (bad magic/version, unknown phases, event counts the
# payload cannot hold), the data manifest (fields the loader relies on,
# lossless re-encoding), the TFRecord sample payload (dim bound,
# voxel count, canonical encoding), the dist transport's frames (1-d
# float32 bodies only, exact lengths, canonical re-encoding) and the
# rendezvous messages (the line bound, the version check, lossless
# re-encoding) — and of the conv kernels' geometry (forward,
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
	$(GO) test -run '^$$' -fuzz FuzzReadRendezvousMsg -fuzztime 10s ./internal/dist

# Full benchmark sweep (minutes); see EXPERIMENTS.md for the record.
bench:
	$(GO) test -run xxx -bench . -benchtime 1x .

# One-pass serving, batched-inference, per-layer conv-forward and
# conv-backward, training-step, optimizer-step and TCP-allreduce benchmarks: a smoke
# signal that the hot paths still run, cheap enough for every CI run.
bench-smoke:
	$(GO) test -run xxx -bench 'Serving|InferBatch|Conv3DForward|Conv3DBackward|TrainStep' -benchtime 1x .
	$(GO) test -run xxx -bench AdamLARCStep -benchtime 1x ./internal/optim
	$(GO) test -run xxx -bench AllReduceTCP -benchtime 1x ./internal/dist

# The end-to-end suite (e2e/, behind the e2e build tag): every command
# built once and run as a binary, daemons on free loopback ports, the
# tests in parallel. DESIGN.md's CI section lists what each test asserts.
e2e:
	$(GO) test -tags e2e -count=1 -timeout 5m ./e2e
