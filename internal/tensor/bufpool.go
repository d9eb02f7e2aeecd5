package tensor

import "sync"

// BufPool is a size-bucketed free list of float32 slices. The batched
// inference path allocates one activation buffer per layer per sample and
// one blocked-layout scratch volume per convolution; recycling them across
// layers and across micro-batches removes nearly all steady-state
// allocation from the serving hot path (the GC analogue of MKL-DNN's
// preallocated primitive workspaces).
//
// Buckets are exact-size: network layer shapes are fixed, so every Get
// after warm-up hits the bucket of a previously Put buffer of the same
// length. All methods are safe for concurrent use, so intra-batch workers
// may draw scratch from a shared pool. A nil *BufPool is valid and pools
// nothing: Get allocates and Put discards.
type BufPool struct {
	mu     sync.Mutex
	bySize map[int][][]float32
}

// NewBufPool returns an empty pool.
func NewBufPool() *BufPool {
	return &BufPool{bySize: make(map[int][][]float32)}
}

// Get returns a slice of length n with UNSPECIFIED contents: recycled
// buffers keep their previous values. Callers must overwrite every element
// (the batched kernels all store, never accumulate, into their outputs);
// code that needs zeros must clear the slice itself.
func (p *BufPool) Get(n int) []float32 {
	if n <= 0 {
		return nil
	}
	if p == nil {
		return make([]float32, n)
	}
	p.mu.Lock()
	if list := p.bySize[n]; len(list) > 0 {
		b := list[len(list)-1]
		list[len(list)-1] = nil
		p.bySize[n] = list[:len(list)-1]
		p.mu.Unlock()
		return b
	}
	p.mu.Unlock()
	return make([]float32, n)
}

// Put returns a slice to the pool for reuse. The caller must not touch b
// afterwards. Putting a slice the pool did not vend is allowed (any
// full-length slice is a valid bucket entry); nil and empty slices are
// ignored.
func (p *BufPool) Put(b []float32) {
	if p == nil || len(b) == 0 {
		return
	}
	p.mu.Lock()
	p.bySize[len(b)] = append(p.bySize[len(b)], b)
	p.mu.Unlock()
}
