// Package comm provides the data-parallel communication substrate: an
// "MPI world" of ranks joined point-to-point by a pluggable Transport,
// with the gradient collectives the paper's training loop needs
// (Algorithm 2). The in-process transport (NewWorld) wires ranks with
// tagged channels; internal/dist supplies a TCP transport so the same
// collectives run unchanged between OS processes (NewWorldWithTransport).
//
// It stands in for the Cray PE ML Plugin (§III-D): every rank is a worker,
// with no parameter server, and the one allreduce is the bandwidth-optimal
// ring, a reduce-scatter followed by an allgather. ReduceScatterSum is the
// same reduce-scatter on its own. §II-C's centralized parameter-server
// baseline is not modelled: training never selects it, and measured on
// in-process ranks sharing one core it says nothing about scaling
// (EXPERIMENTS.md, "Allreduce algorithms: one ring"). Nor are the plugin's
// helper-thread teams, which split one allreduce into chunks progressed
// concurrently: every allreduce runs as one exchange on one stream.
// Chunked teams were measured no faster over TCP and allocated more per
// call (EXPERIMENTS.md, "Allreduce helper teams: measured flat, removed").
package comm

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/obsv"
	"repro/internal/tensor"
)

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
	transports []Transport // per-rank; nil for ranks not local to this process
	bytesSent  atomic.Int64
	msgsSent   atomic.Int64
}

// NewWorld builds an n-rank world. n must be at least 1.
func NewWorld(n int) (*World, error) {
	if n < 1 {
		return nil, fmt.Errorf("comm: world size %d must be positive", n)
	}
	w := &World{n: n}
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
func NewWorldWithTransport(n, rank int, tr Transport) (*World, error) {
	if n < 1 {
		return nil, fmt.Errorf("comm: world size %d must be positive", n)
	}
	if rank < 0 || rank >= n {
		return nil, fmt.Errorf("comm: rank %d outside world of size %d", rank, n)
	}
	if tr == nil {
		return nil, fmt.Errorf("comm: nil transport")
	}
	w := &World{n: n}
	w.transports = make([]Transport, n)
	w.transports[rank] = tr
	return w, nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.n }

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

// AllReduceSum sums buf element-wise across all ranks, leaving the result in
// every rank's buf. It is the bandwidth-optimal ring: the n−1 steps of
// reduceScatter, then n−1 allgather steps, 2·(n−1)/n of the buffer crossing
// each link — the "twice the message length" cost the paper uses in its
// §VI-B bandwidth estimate.
func (c *Comm) AllReduceSum(buf []float32) {
	if tl := c.tl; tl != nil {
		defer tl.Record(obsv.PhaseAllReduce, time.Now())
	}
	n := c.world.n
	if n == 1 {
		return
	}
	c.reduceScatter(buf)
	// Allgather: circulate the completed segments.
	r := c.rank
	next := (r + 1) % n
	prev := (r - 1 + n) % n
	for s := 0; s < n-1; s++ {
		slo, shi := ringSeg(r+1-s, n, len(buf))
		c.send(next, dataTag, buf[slo:shi])
		rlo, rhi := ringSeg(r-s, n, len(buf))
		got := c.recv(prev, dataTag)
		copy(buf[rlo:rhi], got)
		c.tr.Release(got)
	}
}

// ringSeg returns the bounds of segment i, taken mod n, of a buffer of
// length elements cut into n ring segments.
func ringSeg(i, n, length int) (lo, hi int) {
	i = ((i % n) + n) % n
	return i * length / n, (i + 1) * length / n
}

// reduceScatter runs the ring's n−1 reduce-scatter steps over buf, n > 1:
// after step s each rank holds the partial sum of segment (rank−s−1), so on
// return segment rank+1, whose bounds it returns, holds the global sum.
// Both AllReduceSum and ReduceScatterSum are this loop.
func (c *Comm) reduceScatter(buf []float32) (lo, hi int) {
	n := c.world.n
	r := c.rank
	next := (r + 1) % n
	prev := (r - 1 + n) % n
	for s := 0; s < n-1; s++ {
		slo, shi := ringSeg(r-s, n, len(buf))
		c.send(next, dataTag, buf[slo:shi])
		rlo, rhi := ringSeg(r-s-1, n, len(buf))
		got := c.recv(prev, dataTag)
		tensor.Axpy(1, got, buf[rlo:rhi])
		c.tr.Release(got)
	}
	return ringSeg(r+1, n, len(buf))
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
// segment (whose bounds are returned) holds its portion of the global sum,
// bit for bit the same segment AllReduceSum leaves. The rest of buf holds
// partial sums and must be treated as scratch.
func (c *Comm) ReduceScatterSum(buf []float32) (lo, hi int) {
	if tl := c.tl; tl != nil {
		defer tl.Record(obsv.PhaseReduceScatter, time.Now())
	}
	if c.world.n == 1 {
		return 0, len(buf)
	}
	return c.reduceScatter(buf)
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
