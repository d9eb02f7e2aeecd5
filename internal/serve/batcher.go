package serve

import (
	"errors"
	"sync"
	"time"
)

// ErrClosed is returned for requests submitted after a model (or the whole
// server) started shutting down.
var ErrClosed = errors.New("serve: model closed")

// ErrBadRequest marks client-side input errors (HTTP 400); everything else
// a Predict returns is a server-side failure (HTTP 500).
var ErrBadRequest = errors.New("serve: bad request")

// request is one prediction waiting in the micro-batcher.
type request struct {
	voxels   []float32
	enqueued time.Time
	done     chan result // buffered(1); exactly one result is delivered
}

type result struct {
	pred      [3]float32 // normalized network output
	batchSize int        // size of the micro-batch this request rode in
	err       error
}

// batcher coalesces queued requests into micro-batches: a batch is
// dispatched as soon as it reaches maxBatch requests or the oldest request
// has waited maxDelay, whichever comes first. Dispatch runs on its own
// goroutine so several batches can be in flight at once — concurrency is
// bounded downstream by the replica pool. This is the dynamic batching
// layer every production inference server puts in front of its compute
// workers; with the paper's per-rank batch size of one, the batch here
// amortizes queueing and scheduling, not the math itself.
type batcher struct {
	maxBatch int
	maxDelay time.Duration
	dispatch func([]*request)
	metrics  *Metrics

	in chan *request

	// mu guards closed against submit: submitters hold the read side (a
	// blocking channel send under full backlog must not serialize other
	// producers), close takes the write side before closing the channel.
	mu     sync.RWMutex
	closed bool

	loopDone chan struct{}  // run loop exited
	inflight sync.WaitGroup // dispatched batches not yet completed
}

// newBatcher starts the coalescing loop. dispatch is invoked with batches
// of 1..maxBatch requests and must deliver exactly one result to every
// request's done channel.
func newBatcher(maxBatch int, maxDelay time.Duration, metrics *Metrics, dispatch func([]*request)) *batcher {
	if maxBatch < 1 {
		maxBatch = 1
	}
	if maxDelay <= 0 {
		maxDelay = time.Millisecond
	}
	b := &batcher{
		maxBatch: maxBatch,
		maxDelay: maxDelay,
		dispatch: dispatch,
		metrics:  metrics,
		in:       make(chan *request, 4*maxBatch),
		loopDone: make(chan struct{}),
	}
	go b.run()
	return b
}

// submit enqueues one request, or reports ErrClosed once close has begun.
func (b *batcher) submit(r *request) error {
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return ErrClosed
	}
	// Send while still holding the read lock, so close() cannot close the
	// channel between the check and the send; concurrent submitters
	// proceed in parallel.
	b.metrics.queueDepth.Add(1)
	b.in <- r
	b.mu.RUnlock()
	return nil
}

// close stops admission, drains every queued request through dispatch, and
// waits for all in-flight batches to complete — the graceful-shutdown half
// of the serving contract.
func (b *batcher) close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		<-b.loopDone
		b.inflight.Wait()
		return
	}
	b.closed = true
	close(b.in)
	b.mu.Unlock()
	<-b.loopDone
	b.inflight.Wait()
}

// run is the coalescing loop: collect one batch, hand it off, repeat.
func (b *batcher) run() {
	defer close(b.loopDone)
	for {
		first, ok := <-b.in
		if !ok {
			return
		}
		batch := b.collect(first)
		b.metrics.queueDepth.Add(-int64(len(batch)))
		b.metrics.observeBatch(len(batch))
		b.inflight.Add(1)
		go func(batch []*request) {
			defer b.inflight.Done()
			b.dispatch(batch)
		}(batch)
	}
}

// collect gathers requests after first until the batch fills or first's
// deadline expires. A closed input flushes immediately with whatever has
// arrived.
func (b *batcher) collect(first *request) []*request {
	batch := append(make([]*request, 0, b.maxBatch), first)
	if b.maxBatch == 1 {
		return batch
	}
	deadline := time.NewTimer(b.maxDelay - time.Since(first.enqueued))
	defer deadline.Stop()
	for len(batch) < b.maxBatch {
		select {
		case r, ok := <-b.in:
			if !ok {
				return batch
			}
			batch = append(batch, r)
		case <-deadline.C:
			// Deadline hit: still sweep up whatever is already queued, so
			// a backlog dispatches full batches instead of singletons.
			for len(batch) < b.maxBatch {
				select {
				case r, ok := <-b.in:
					if !ok {
						return batch
					}
					batch = append(batch, r)
				default:
					return batch
				}
			}
			return batch
		}
	}
	return batch
}
