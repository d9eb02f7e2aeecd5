// Package comm provides the data-parallel communication substrate: an
// "MPI world" of ranks joined point-to-point by a pluggable Transport,
// with the gradient collectives the paper's training loop needs
// (Algorithm 2). The in-process transport (NewWorld) wires ranks with
// tagged channels; internal/dist supplies a TCP transport so the same
// collectives run unchanged between OS processes (NewWorldWithTransport).
//
// It stands in for the Cray PE ML Plugin (§III-D): every rank is a worker
// (no parameter servers in the default algorithms), collectives are
// implemented with scalable algorithms (ring reduce-scatter/allgather and
// recursive doubling). A centralized parameter-server algorithm is
// included as the gRPC-style baseline that Mathuriya et al. (2017) showed
// does not scale. The plugin's helper-thread teams, which split one
// allreduce into chunks progressed concurrently, are not modelled: every
// allreduce runs as one exchange on one stream. Chunked teams were
// measured no faster over TCP and allocated more per call
// (EXPERIMENTS.md, "Allreduce helper teams: measured flat, removed").
package comm

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/obsv"
	"repro/internal/tensor"
)

// Algorithm selects the allreduce implementation.
type Algorithm int

const (
	// Ring is the bandwidth-optimal ring reduce-scatter + allgather.
	Ring Algorithm = iota
	// RecursiveDoubling is the latency-optimal log₂(n) exchange; it falls
	// back to Ring for non-power-of-two worlds.
	RecursiveDoubling
	// Central is the master-based baseline: rank 0 sums and redistributes
	// (the gRPC parameter-server pattern of §II-C).
	Central
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case Ring:
		return "ring"
	case RecursiveDoubling:
		return "recursive-doubling"
	case Central:
		return "central"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// MaxTags is the number of independent in-order message streams per rank
// pair: dataTag plus one reserved tag per control collective.
const MaxTags = 4

// dataTag carries the allreduce, reduce-scatter and allgather payloads;
// barrierTag, bcastTag and gatherTag are reserved streams for the control
// collectives so they never interleave with data traffic.
const (
	dataTag    = 0
	gatherTag  = 1
	bcastTag   = 2
	barrierTag = 3
)

// World is a set of n ranks joined by a point-to-point Transport. An
// in-process world (NewWorld) hosts every rank over a shared channel mesh;
// a distributed world (NewWorldWithTransport) hosts exactly one local rank
// whose transport reaches the others across process boundaries.
type World struct {
	n          int
	algorithm  Algorithm
	transports []Transport // per-rank; nil for ranks not local to this process
	bytesSent  atomic.Int64
	msgsSent   atomic.Int64
}

// Option configures a World.
type Option func(*World)

// WithAlgorithm selects the allreduce algorithm (default Ring).
func WithAlgorithm(a Algorithm) Option { return func(w *World) { w.algorithm = a } }

// NewWorld builds an n-rank world. n must be at least 1.
func NewWorld(n int, opts ...Option) (*World, error) {
	if n < 1 {
		return nil, fmt.Errorf("comm: world size %d must be positive", n)
	}
	w := &World{n: n, algorithm: Ring}
	for _, o := range opts {
		o(w)
	}
	links := newChanMesh(n)
	w.transports = make([]Transport, n)
	for r := 0; r < n; r++ {
		w.transports[r] = &chanTransport{rank: r, links: links}
	}
	return w, nil
}

// NewWorldWithTransport builds an n-rank world of which only the given rank
// is local to this process, communicating through tr. Comm is valid for
// that rank alone; the remaining ranks live in other processes holding
// their own worlds over the same wire (see internal/dist).
func NewWorldWithTransport(n, rank int, tr Transport, opts ...Option) (*World, error) {
	if n < 1 {
		return nil, fmt.Errorf("comm: world size %d must be positive", n)
	}
	if rank < 0 || rank >= n {
		return nil, fmt.Errorf("comm: rank %d outside world of size %d", rank, n)
	}
	if tr == nil {
		return nil, fmt.Errorf("comm: nil transport")
	}
	w := &World{n: n, algorithm: Ring}
	for _, o := range opts {
		o(w)
	}
	w.transports = make([]Transport, n)
	w.transports[rank] = tr
	return w, nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.n }

// Algorithm returns the configured allreduce algorithm.
func (w *World) Algorithm() Algorithm { return w.algorithm }

// BytesSent returns the cumulative payload bytes sent by all ranks, for the
// §VI-B bandwidth accounting.
func (w *World) BytesSent() int64 { return w.bytesSent.Load() }

// MessagesSent returns the cumulative message count.
func (w *World) MessagesSent() int64 { return w.msgsSent.Load() }

// Comm returns rank r's communicator handle. r must be local to this world
// (every rank of an in-process world; the single joined rank of a
// distributed one).
func (w *World) Comm(r int) *Comm {
	if r < 0 || r >= w.n {
		panic(fmt.Sprintf("comm: rank %d outside world of size %d", r, w.n))
	}
	if w.transports[r] == nil {
		panic(fmt.Sprintf("comm: rank %d is not local to this world", r))
	}
	return &Comm{world: w, rank: r, tr: w.transports[r]}
}

// Comms returns communicators for all ranks in order. Only valid on an
// in-process world, where every rank is local.
func (w *World) Comms() []*Comm {
	out := make([]*Comm, w.n)
	for i := range out {
		out[i] = w.Comm(i)
	}
	return out
}

// Comm is one rank's endpoint. All collective methods must be invoked by
// every rank of the world ("collectively"), each from its own goroutine.
type Comm struct {
	world *World
	rank  int
	tr    Transport
	tl    *obsv.Timeline
}

// Rank returns this endpoint's rank.
func (c *Comm) Rank() int { return c.rank }

// SetTimeline attaches (or with nil detaches) a per-rank event timeline to
// this communicator handle: subsequent collectives record one phase event
// each, whatever transport carries them. It is the only way collectives
// are timed. The train loop attaches each rank's ring here and detaches
// it before the end-of-run timeline gather so the gather's own traffic is
// not recorded. Attach and detach while no collective is in flight.
func (c *Comm) SetTimeline(tl *obsv.Timeline) { c.tl = tl }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.n }

// send transmits buf to dst on the given tag stream. The transport owns
// copying/serialization, so buf may be reused once send returns. A
// transport failure panics with *TransportError (see Transport).
func (c *Comm) send(dst, tag int, buf []float32) {
	c.world.bytesSent.Add(int64(4 * len(buf)))
	c.world.msgsSent.Add(1)
	if err := c.tr.Send(dst, tag, buf); err != nil {
		panic(&TransportError{Rank: c.rank, Peer: dst, Op: "send", Err: err})
	}
}

// recv blocks for the next message from src on the given tag stream. A
// transport failure panics with *TransportError.
func (c *Comm) recv(src, tag int) []float32 {
	buf, err := c.tr.Recv(src, tag)
	if err != nil {
		panic(&TransportError{Rank: c.rank, Peer: src, Op: "recv", Err: err})
	}
	return buf
}

// Barrier blocks until every rank has entered it (dissemination barrier).
func (c *Comm) Barrier() {
	if tl := c.tl; tl != nil {
		defer tl.Record(obsv.PhaseBarrier, time.Now())
	}
	n := c.world.n
	if n == 1 {
		return
	}
	token := []float32{}
	for d := 1; d < n; d <<= 1 {
		c.send((c.rank+d)%n, barrierTag, token)
		c.recv((c.rank-d+n)%n, barrierTag)
	}
}

// Broadcast distributes root's buf to every rank in place using a binomial
// tree, as the paper does for the initial model parameters (§V-A).
func (c *Comm) Broadcast(buf []float32, root int) {
	if tl := c.tl; tl != nil {
		defer tl.Record(obsv.PhaseBroadcast, time.Now())
	}
	n := c.world.n
	if n == 1 {
		return
	}
	// Work in a rotated rank space where the root is 0.
	vr := (c.rank - root + n) % n
	received := vr == 0
	for offset := 1; offset < n; offset <<= 1 {
		if received && vr+offset < n && vr < offset {
			dst := (vr + offset + root) % n
			c.send(dst, bcastTag, buf)
		} else if !received && vr >= offset && vr < 2*offset {
			src := (vr - offset + root) % n
			got := c.recv(src, bcastTag)
			copy(buf, got)
			c.tr.Release(got)
			received = true
		}
	}
}

// reduceOp is the element-wise combiner threaded through the allreduce
// algorithms. All ops are associative and commutative, so every algorithm
// computes the same reduction (sum is subject to float32 rounding order,
// which each algorithm keeps deterministic for a fixed world size).
type reduceOp int

const (
	opSum reduceOp = iota
	opMax
)

// combine folds got into dst element-wise under op. A length mismatch is
// a protocol violation and panics for every op (Axpy enforces it for sum;
// max must be equally loud — a silently partial reduction would let ranks
// disagree on the result).
func combine(op reduceOp, got, dst []float32) {
	switch op {
	case opSum:
		tensor.Axpy(1, got, dst)
	case opMax:
		if len(got) != len(dst) {
			panic(fmt.Sprintf("comm: max-reduce received %d elements, want %d", len(got), len(dst)))
		}
		for i, v := range got {
			if v > dst[i] {
				dst[i] = v
			}
		}
	}
}

// AllReduceSum sums buf element-wise across all ranks, leaving the result in
// every rank's buf.
func (c *Comm) AllReduceSum(buf []float32) { c.allReduce(buf, opSum) }

// AllReduceMax leaves the element-wise maximum across all ranks in every
// rank's buf — the collective behind global gradient-norm clipping and
// max-style metric sync (e.g. slowest-rank step time).
func (c *Comm) AllReduceMax(buf []float32) { c.allReduce(buf, opMax) }

// allReduce runs the configured algorithm over the whole buffer on the
// data stream.
func (c *Comm) allReduce(buf []float32, op reduceOp) {
	if tl := c.tl; tl != nil {
		defer tl.Record(obsv.PhaseAllReduce, time.Now())
	}
	n := c.world.n
	if n == 1 {
		return
	}
	switch algo := c.world.algorithm; {
	case algo == Central:
		c.allReduceCentral(buf, op)
	case algo == RecursiveDoubling && n&(n-1) == 0:
		c.allReduceRecursiveDoubling(buf, op)
	default: // Ring, and RecursiveDoubling's non-power-of-two fallback
		c.allReduceRing(buf, op)
	}
}

// allReduceRing is the bandwidth-optimal ring algorithm: n−1 reduce-scatter
// steps followed by n−1 allgather steps, 2·(n−1)/n of the buffer crossing
// each link — the "twice the message length" cost the paper uses in its
// §VI-B bandwidth estimate.
func (c *Comm) allReduceRing(buf []float32, op reduceOp) {
	n := c.world.n
	r := c.rank
	next := (r + 1) % n
	prev := (r - 1 + n) % n

	seg := func(i int) (int, int) {
		i = ((i % n) + n) % n
		lo := i * len(buf) / n
		hi := (i + 1) * len(buf) / n
		return lo, hi
	}

	// Reduce-scatter: after step s, each rank holds the partial sum of
	// segment (rank−s−1).
	for s := 0; s < n-1; s++ {
		slo, shi := seg(r - s)
		c.send(next, dataTag, buf[slo:shi])
		rlo, rhi := seg(r - s - 1)
		got := c.recv(prev, dataTag)
		combine(op, got, buf[rlo:rhi])
		c.tr.Release(got)
	}
	// Allgather: circulate the completed segments.
	for s := 0; s < n-1; s++ {
		slo, shi := seg(r + 1 - s)
		c.send(next, dataTag, buf[slo:shi])
		rlo, rhi := seg(r - s)
		got := c.recv(prev, dataTag)
		copy(buf[rlo:rhi], got)
		c.tr.Release(got)
	}
}

// allReduceRecursiveDoubling exchanges the full buffer with partners at
// doubling distances; requires a power-of-two world.
func (c *Comm) allReduceRecursiveDoubling(buf []float32, op reduceOp) {
	n := c.world.n
	for d := 1; d < n; d <<= 1 {
		partner := c.rank ^ d
		// Both sides send then receive; transport buffering (channel cap
		// ≥ 1 in-process, kernel socket buffers + a reader goroutine over
		// TCP) prevents deadlock on the symmetric exchange.
		c.send(partner, dataTag, buf)
		got := c.recv(partner, dataTag)
		combine(op, got, buf)
		c.tr.Release(got)
	}
}

// allReduceCentral gathers everything at rank 0, which sums and unicasts
// the result back: the master-based pattern whose algorithmic and
// socket-level inefficiencies motivated the ML Plugin (§II-C).
func (c *Comm) allReduceCentral(buf []float32, op reduceOp) {
	n := c.world.n
	if c.rank == 0 {
		for src := 1; src < n; src++ {
			got := c.recv(src, dataTag)
			combine(op, got, buf)
			c.tr.Release(got)
		}
		for dst := 1; dst < n; dst++ {
			c.send(dst, dataTag, buf)
		}
	} else {
		c.send(0, dataTag, buf)
		got := c.recv(0, dataTag)
		copy(buf, got)
		c.tr.Release(got)
	}
}

// AllReduceMean computes the element-wise mean across ranks: the gradient
// averaging step of Algorithm 2.
func (c *Comm) AllReduceMean(buf []float32) {
	c.AllReduceSum(buf)
	if n := c.world.n; n > 1 {
		tensor.Scale(1/float32(n), buf)
	}
}

// AllReduceScalar reduces a single float64 (loss averaging at epoch end).
func (c *Comm) AllReduceScalar(v float64) float64 {
	buf := []float32{float32(v)}
	c.AllReduceSum(buf)
	return float64(buf[0])
}

// ReduceScatterSum performs the reduce-scatter half of the ring allreduce:
// buf is summed element-wise across ranks, and on return this rank's owned
// segment (whose bounds are returned) holds its portion of the global sum.
// The rest of buf holds partial sums and must be treated as scratch.
func (c *Comm) ReduceScatterSum(buf []float32) (lo, hi int) {
	if tl := c.tl; tl != nil {
		defer tl.Record(obsv.PhaseReduceScatter, time.Now())
	}
	n := c.world.n
	if n == 1 {
		return 0, len(buf)
	}
	r := c.rank
	next := (r + 1) % n
	prev := (r - 1 + n) % n
	seg := func(i int) (int, int) {
		i = ((i % n) + n) % n
		return i * len(buf) / n, (i + 1) * len(buf) / n
	}
	for s := 0; s < n-1; s++ {
		slo, shi := seg(r - s)
		c.send(next, dataTag, buf[slo:shi])
		rlo, rhi := seg(r - s - 1)
		got := c.recv(prev, dataTag)
		tensor.Axpy(1, got, buf[rlo:rhi])
		c.tr.Release(got)
	}
	return seg(r + 1)
}

// AllGather concatenates every rank's equal-length local block into out,
// ordered by rank. len(out) must be Size()·len(local).
func (c *Comm) AllGather(local, out []float32) {
	if tl := c.tl; tl != nil {
		defer tl.Record(obsv.PhaseAllGather, time.Now())
	}
	n := c.world.n
	if len(out) != n*len(local) {
		panic(fmt.Sprintf("comm: AllGather out length %d, want %d", len(out), n*len(local)))
	}
	r := c.rank
	copy(out[r*len(local):(r+1)*len(local)], local)
	if n == 1 {
		return
	}
	next := (r + 1) % n
	prev := (r - 1 + n) % n
	for s := 0; s < n-1; s++ {
		src := ((r-s)%n + n) % n
		c.send(next, dataTag, out[src*len(local):(src+1)*len(local)])
		dst := ((r-s-1)%n + n) % n
		got := c.recv(prev, dataTag)
		copy(out[dst*len(local):(dst+1)*len(local)], got)
		c.tr.Release(got)
	}
}

// Gather collects every rank's variable-length local buffer at root,
// returned in rank order (nil on every other rank). Unlike AllGather the
// blocks need not be equal length — this is the collective behind the
// end-of-run timeline gather, where each rank recorded a different number
// of events. It runs on a reserved tag so it never interleaves with
// data traffic, and the payload rides the same bit-exact float32 framing
// as every other collective. The returned blocks are the received buffers
// themselves, never released to the transport, so they stay valid across
// later collectives.
func (c *Comm) Gather(local []float32, root int) [][]float32 {
	n := c.world.n
	if root < 0 || root >= n {
		panic(fmt.Sprintf("comm: Gather root %d outside world of size %d", root, n))
	}
	if c.rank != root {
		c.send(root, gatherTag, local)
		return nil
	}
	out := make([][]float32, n)
	out[root] = append([]float32(nil), local...)
	for src := 0; src < n; src++ {
		if src == root {
			continue
		}
		out[src] = c.recv(src, gatherTag)
	}
	return out
}
