package comm

import (
	"fmt"
	"slices"
	"sync"
)

// Transport is the point-to-point substrate a Comm runs its collectives
// over: MaxTags independent in-order message streams to and from every
// peer rank. The channel mesh built by NewWorld is the in-process
// implementation; internal/dist provides the cross-process TCP one.
//
// Ownership contract: Send only reads buf during the call (implementations
// copy or serialize before returning), and the slice Recv returns is owned
// by the caller. Both block — Send until the message is accepted for
// delivery, Recv until a message arrives or the transport fails. A caller
// done with a received slice may hand it back with Release, once, and must
// not touch it afterwards: the transport may fill it with a later message.
// A slice never released stays the caller's (Gather returns its received
// slices to its caller, so it releases none).
type Transport interface {
	// Send delivers buf to rank dst on the given tag stream (0 ≤ tag <
	// MaxTags). Messages between one (src, dst, tag) triple arrive in
	// send order.
	Send(dst, tag int, buf []float32) error
	// Recv blocks for the next message from rank src on the given tag
	// stream.
	Recv(src, tag int) ([]float32, error)
	// Release returns a slice Recv delivered, for the transport to reuse
	// for a later message. It may keep or drop it.
	Release(buf []float32)
	// Close releases transport resources. Collectives must be quiescent:
	// the caller is responsible for a final Barrier (or equivalent)
	// before tearing the world down.
	Close() error
}

// TransportError is the panic value a Comm raises when its transport
// fails mid-collective (peer death, connection loss). Collectives keep
// their error-free signatures — an in-process world cannot fail — and
// distributed callers recover the panic at the rank's top frame and turn
// it into an ordinary error (see train.RunDistributed).
type TransportError struct {
	Rank int    // the rank whose collective failed
	Peer int    // the peer being communicated with
	Op   string // "send" or "recv"
	Err  error
}

func (e *TransportError) Error() string {
	return fmt.Sprintf("comm: rank %d %s involving rank %d: %v", e.Rank, e.Op, e.Peer, e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }

// chanTransport is one rank's view of the in-process channel mesh: buffered
// FIFO channels shared by every rank of the world. It never fails. Send
// copies each message into a slice from the rank's free list, which
// Release refills with the slices the rank received, so a collective in
// steady state allocates no message.
type chanTransport struct {
	rank  int
	links [][][]chan []float32 // [src][dst][tag], shared across ranks

	mu   sync.Mutex
	free [][]float32 // released slices, oldest first, at most maxFree
}

// maxFree bounds a rank's free list. A balanced collective gives a rank
// back one slice per slice it sends, so a handful covers every collective;
// beyond it the oldest slice is dropped for the garbage collector.
const maxFree = 8

// newChanMesh builds the all-to-all tagged channel mesh for n ranks.
func newChanMesh(n int) [][][]chan []float32 {
	links := make([][][]chan []float32, n)
	for s := 0; s < n; s++ {
		links[s] = make([][]chan []float32, n)
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			tags := make([]chan []float32, MaxTags)
			for t := range tags {
				tags[t] = make(chan []float32, 4)
			}
			links[s][d] = tags
		}
	}
	return links
}

func (t *chanTransport) Send(dst, tag int, buf []float32) error {
	cp := t.take(len(buf))
	copy(cp, buf)
	t.links[t.rank][dst][tag] <- cp
	return nil
}

func (t *chanTransport) Recv(src, tag int) ([]float32, error) {
	return <-t.links[src][t.rank][tag], nil
}

// take returns a slice of length n: the smallest free slice with the
// capacity, taken off the list, or a new one if none has it.
func (t *chanTransport) take(n int) []float32 {
	if n == 0 {
		return []float32{} // the barrier token: no slice is worth spending on it
	}
	t.mu.Lock()
	best := -1
	for i, b := range t.free {
		if cap(b) >= n && (best < 0 || cap(b) < cap(t.free[best])) {
			best = i
		}
	}
	if best >= 0 {
		b := t.free[best]
		t.free = slices.Delete(t.free, best, best+1)
		t.mu.Unlock()
		return b[:n]
	}
	t.mu.Unlock()
	return make([]float32, n) // outside the lock: a miss may zero megabytes
}

// Release puts buf on the rank's free list for a later Send, dropping the
// oldest slice if the list is full.
func (t *chanTransport) Release(buf []float32) {
	if cap(buf) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.free) == maxFree {
		t.free = slices.Delete(t.free, 0, 1)
	}
	t.free = append(t.free, buf)
}

func (t *chanTransport) Close() error { return nil }
