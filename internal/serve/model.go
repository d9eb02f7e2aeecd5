package serve

import (
	"fmt"
	"time"

	"repro/internal/cosmo"
	"repro/internal/obsv"
	"repro/internal/tensor"
)

// Model is one servable checkpoint: a replica pool fed by a micro-batcher,
// with per-model metrics. Predict is safe for any number of concurrent
// callers; the batcher coalesces them and the pool bounds concurrent
// forward passes.
type Model struct {
	name       string
	inputShape tensor.Shape
	priors     cosmo.Priors
	pool       *replicaPool
	batch      *batcher
	metrics    *Metrics
	// trace aggregates per-layer forward timings across the whole replica
	// pool (every replica shares the pointer); nil unless the model was
	// loaded with ModelConfig.Trace.
	trace *obsv.ForwardTrace
	// layerFLOPs is each layer's analytic forward FLOP count for one sample
	// at the model's input shape, index-aligned with trace's layer spans —
	// the static half of the roofline attribution.
	layerFLOPs []int64
}

// Prediction is the answer to one serving request.
type Prediction struct {
	// Params are the denormalized physical parameters (through the priors,
	// like train.Evaluate).
	Params cosmo.Params
	// Normalized is the raw [0,1]³ network output.
	Normalized [3]float32
	// BatchSize is the micro-batch size this request was served in.
	BatchSize int
	// Latency is the end-to-end queue + compute time.
	Latency time.Duration
}

func newModel(cfg ModelConfig) (*Model, error) {
	if cfg.Name == "" {
		cfg.Name = DefaultModel
	}
	if cfg.Replicas < 1 {
		cfg.Replicas = 1
	}
	if cfg.MaxBatch < 1 {
		cfg.MaxBatch = 8
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 2 * time.Millisecond
	}
	if cfg.Priors == (cosmo.Priors{}) {
		cfg.Priors = cosmo.DefaultPriors()
	}
	net, err := buildNetwork(cfg)
	if err != nil {
		return nil, err
	}
	var trace *obsv.ForwardTrace
	if cfg.Trace {
		// Attach before cloning so every replica inherits the shared trace.
		trace = obsv.NewForwardTrace(net.LayerNames())
		net.SetTrace(trace)
	}
	pool := newReplicaPool(net, cfg.Replicas, cfg.WorkersPerReplica)
	perLayer := net.PerLayerFLOPs()
	layerFLOPs := make([]int64, len(perLayer))
	for i, lf := range perLayer {
		layerFLOPs[i] = lf.Fwd
	}
	m := &Model{
		name:       cfg.Name,
		inputShape: net.InputShape(),
		priors:     cfg.Priors,
		pool:       pool,
		metrics:    &Metrics{},
		trace:      trace,
		layerFLOPs: layerFLOPs,
	}
	m.batch = newBatcher(cfg.MaxBatch, cfg.MaxDelay, m.metrics, m.runBatch)
	return m, nil
}

// runBatch serves one micro-batch as a single batched forward pass
// (nn.InferBatch) on one replica, so dynamic batching amortizes the kernels
// themselves — one (batch × task) parallel-for per layer — not just the
// queueing; batches from other dispatch goroutines run on other replicas
// concurrently. Kernel time is metered separately from the requests' queue
// wait so the batched path's gains show up in /stats. A panic in the
// forward pass fails this batch's requests instead of crashing the daemon;
// the replica holds no cross-request state, so it returns to the pool
// usable. Caveat: with WorkersPerReplica > 1 a panic raised inside a
// parallel.Pool worker goroutine cannot be recovered here and still
// crashes the process — the recovery contract fully holds only for the
// default single-worker replicas.
func (m *Model) runBatch(batch []*request) {
	rep := m.pool.acquire()
	defer m.pool.release(rep)
	start := time.Now()
	for _, r := range batch {
		m.metrics.observeQueueWait(start.Sub(r.enqueued))
	}
	served := false
	defer func() {
		// Un-pin the request buffers on every exit path — a panicking
		// batch must not leave an idle replica referencing its voxel
		// volumes until the next dispatch.
		for i := range rep.xs {
			rep.xs[i].Release()
		}
		if p := recover(); p != nil {
			err := fmt.Errorf("serve: model %s: prediction panic: %v", m.name, p)
			if served {
				err = fmt.Errorf("serve: model %s: delivery panic: %v", m.name, p)
			}
			for _, r := range batch {
				select {
				case r.done <- result{err: err}:
				default: // already answered before the panic
				}
			}
		}
	}()
	n := len(batch)
	if cap(rep.xs) < n {
		rep.xs = make([]tensor.Tensor, n)
		rep.ptrs = make([]*tensor.Tensor, n)
	}
	rep.xs, rep.ptrs = rep.xs[:n], rep.ptrs[:n]
	for i, r := range batch {
		// Predict checked the voxel count against the model's shape.
		rep.xs[i].Wrap(r.voxels, m.inputShape...)
		rep.ptrs[i] = &rep.xs[i]
	}
	ys := rep.net.InferBatch(rep.ptrs)
	m.metrics.observeKernel(time.Since(start))
	served = true
	for i, r := range batch {
		r.done <- result{pred: [3]float32(ys[i].Data()), batchSize: n}
	}
}

// Predict queues one voxel volume and blocks until its micro-batch is
// served. voxels must hold exactly InputShape().NumElements() values in
// [C D H W] order.
func (m *Model) Predict(voxels []float32) (*Prediction, error) {
	if len(voxels) != m.inputShape.NumElements() {
		m.metrics.errors.Add(1)
		return nil, fmt.Errorf("%w: model %s expects %d voxels (shape %v), got %d",
			ErrBadRequest, m.name, m.inputShape.NumElements(), m.inputShape, len(voxels))
	}
	m.metrics.inflight.Add(1)
	r := &request{
		voxels:   voxels,
		enqueued: time.Now(),
		done:     make(chan result, 1),
	}
	if err := m.batch.submit(r); err != nil {
		m.metrics.inflight.Add(-1)
		m.metrics.errors.Add(1)
		return nil, err
	}
	res := <-r.done
	// Leave inflight before entering the completion counters, so
	// Requests+Inflight never double-counts a request (readers use the
	// sum as an admission lower bound).
	m.metrics.inflight.Add(-1)
	if res.err != nil {
		m.metrics.errors.Add(1)
		return nil, res.err
	}
	lat := time.Since(r.enqueued)
	m.metrics.observe(lat)
	return &Prediction{
		Params:     m.priors.Denormalize(res.pred),
		Normalized: res.pred,
		BatchSize:  res.batchSize,
		Latency:    lat,
	}, nil
}

// Name returns the registry key.
func (m *Model) Name() string { return m.name }

// InputShape returns the expected voxel shape [C D D D].
func (m *Model) InputShape() tensor.Shape { return m.inputShape }

// Priors returns the denormalization priors.
func (m *Model) Priors() cosmo.Priors { return m.priors }

// Replicas returns the concurrent-inference bound.
func (m *Model) Replicas() int { return m.pool.size() }

// Stats snapshots the model's metrics.
func (m *Model) Stats() Stats { return m.metrics.Snapshot() }

// TraceSnapshot returns the whole-forward span and the per-layer spans in
// stack order, aggregated across the replica pool. ok is false when the
// model was loaded without tracing.
func (m *Model) TraceSnapshot() (fwd obsv.SpanStat, layers []obsv.SpanStat, ok bool) {
	if m.trace == nil {
		return obsv.SpanStat{}, nil, false
	}
	fwd, layers = m.trace.Snapshot()
	return fwd, layers, true
}

// Roofline joins the per-layer trace spans with the layers' analytic FLOP
// counts into GFLOP/s attribution (see obsv.BuildRoofline). samples is the
// batch-item total the spans cover — each span observation times a whole
// micro-batch, so the rate divides per-sample FLOPs × items served, not
// span count. ok is false when the model was loaded without tracing.
func (m *Model) Roofline() (layers []obsv.LayerRoofline, samples int64, ok bool) {
	if m.trace == nil {
		return nil, 0, false
	}
	_, spans := m.trace.Snapshot()
	samples = m.metrics.batchItems.Load()
	return obsv.BuildRoofline(spans, m.layerFLOPs, samples), samples, true
}

// Close drains the batcher (queued and in-flight requests all complete)
// and then releases the replicas. Subsequent Predicts return ErrClosed.
func (m *Model) Close() {
	m.batch.close()
	m.pool.close()
}
