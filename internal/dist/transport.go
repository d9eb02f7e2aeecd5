package dist

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/comm"
	"repro/internal/serve/wire"
)

// Wire framing: every message on a peer connection is one length-prefixed
// frame,
//
//	offset  size  field
//	0       4     frame length (uint32 LE, counts kind+tag+body)
//	4       1     kind (data, heartbeat, goodbye)
//	5       1     tag  (comm stream id, 0..comm.MaxTags-1; 0 on heartbeat/goodbye)
//	6       ...   body
//
// A data frame's body is a CFT1 tensor (internal/serve/wire) of dtype
// float32 with a single dimension — the same self-delimiting codec the
// serving API ships volumes in, reused here as the collective payload
// format. A zero-length collective message (the barrier token) is a data
// frame with an empty body, since CFT1 cannot express zero elements.
// Heartbeat and goodbye frames carry no body.
//
// CFT1's payload is little-endian float32, which is a float32 slice's own
// memory on a little-endian host. So writeFrame sends the buffer's bytes
// as they are and readFrame reads the payload straight into a float32
// buffer: no per-element conversion, no staging copy. Join refuses a
// big-endian host rather than keep a second, converting codec.
const (
	frameData      byte = 1
	frameHeartbeat byte = 2
	frameGoodbye   byte = 3
)

// maxFrameBytes bounds a frame read; generous enough for any gradient
// buffer (the paper's full model is ~28 MB) while rejecting corrupt
// length prefixes before they turn into huge allocations.
const maxFrameBytes = 1 << 30

// cftHeader1D is the length of a 1-d CFT1 header: magic, version, dtype,
// ndims, one dim.
const cftHeader1D = 12

// ioChunk sizes each connection's bufio buffers and the largest single
// socket write, so every 64 KB of progress refreshes the peer deadline.
const ioChunk = 64 << 10

// keepPerPeer bounds the released receive buffers a transport keeps for
// reuse, keepPerPeer·(size−1) in all. Two per peer cover the ring: while
// a rank combines one received segment, its reader may already be filling
// the next.
const keepPerPeer = 2

// meshHello is the one-line JSON handshake a dialing rank sends on a fresh
// data-plane connection so the acceptor knows which peer it is.
type meshHello struct {
	Rank int `json:"rank"`
}

// peer is one established data-plane connection.
type peer struct {
	rank int
	conn net.Conn
	dr   *deadlineReader
	dw   *deadlineWriter
	br   *bufio.Reader
	wmu  sync.Mutex // serializes writeFrame+flush (collectives + heartbeats)
	bw   *bufio.Writer
	left chan struct{} // closed when the peer announced a clean goodbye
}

// deadlineReader refreshes the connection's read deadline before every
// read once armed, so a frame that keeps making progress — however large
// or however slow the link — never trips the peer timeout; only timeout's
// worth of true silence does. Unarmed (timeout 0), it leaves the caller's
// absolute handshake deadline in force.
type deadlineReader struct {
	conn    net.Conn
	timeout time.Duration
}

func (d *deadlineReader) Read(p []byte) (int, error) {
	if d.timeout > 0 {
		d.conn.SetReadDeadline(time.Now().Add(d.timeout))
	}
	return d.conn.Read(p)
}

// deadlineWriter is the write-side mirror: each buffered-writer chunk gets
// a fresh deadline, so a large gradient frame on a slow link never trips
// the peer timeout mid-frame — only a stalled peer (full socket buffers,
// no progress for timeout) does.
type deadlineWriter struct {
	conn    net.Conn
	timeout time.Duration
}

func (d *deadlineWriter) Write(p []byte) (int, error) {
	if d.timeout <= 0 {
		return d.conn.Write(p)
	}
	// A gradient payload bypasses the bufio.Writer in one large Write;
	// chunk it so the deadline still bounds silence, not frame size.
	n := 0
	for n < len(p) {
		d.conn.SetWriteDeadline(time.Now().Add(d.timeout))
		m, err := d.conn.Write(p[n:min(n+ioChunk, len(p))])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// transport is the cross-process comm.Transport: a full TCP mesh with one
// connection per peer, per-(src,tag) FIFO inboxes fed by one reader
// goroutine per connection, periodic heartbeats, and read deadlines that
// turn a silent peer into a detected failure.
type transport struct {
	rank, size int
	hb         time.Duration // heartbeat send interval
	timeout    time.Duration // silence after which a peer is declared dead
	peers      []*peer       // by rank; nil at self
	inbox      [][]chan []float32
	free       recycler      // released receive buffers, refilled by readLoop
	failed     chan struct{} // closed on first peer failure
	failOnce   sync.Once
	failErr    error // written once before failed closes
	stop       chan struct{}
	closing    atomic.Bool
	wg         sync.WaitGroup
}

var _ comm.Transport = (*transport)(nil)

// connect establishes the data-plane mesh: this rank dials every lower
// rank and accepts a connection from every higher rank, then starts the
// per-peer reader and heartbeat loops.
func connect(cfg Config, rank int, peerAddrs []string, ln net.Listener) (*transport, error) {
	size := cfg.Size
	t := &transport{
		rank: rank, size: size,
		hb: cfg.HeartbeatEvery, timeout: cfg.PeerTimeout,
		peers:  make([]*peer, size),
		inbox:  make([][]chan []float32, size),
		failed: make(chan struct{}),
		stop:   make(chan struct{}),
		free:   recycler{max: keepPerPeer * (size - 1)},
	}
	for s := 0; s < size; s++ {
		if s == rank {
			continue
		}
		chans := make([]chan []float32, comm.MaxTags)
		for i := range chans {
			chans[i] = make(chan []float32, 16)
		}
		t.inbox[s] = chans
	}

	deadline := time.Now().Add(cfg.JoinTimeout)
	if tl, ok := ln.(*net.TCPListener); ok {
		tl.SetDeadline(deadline)
	}
	cleanup := func() {
		for _, p := range t.peers {
			if p != nil {
				p.conn.Close()
			}
		}
	}

	// Accept from higher ranks concurrently with dialing lower ones, or
	// two ranks could wait on each other's accept loops.
	type acceptResult struct {
		p   *peer
		err error
	}
	toAccept := size - 1 - rank
	acceptCh := make(chan acceptResult, toAccept)
	go func() {
		for k := 0; k < toAccept; k++ {
			conn, err := ln.Accept()
			if err != nil {
				acceptCh <- acceptResult{err: fmt.Errorf("dist: rank %d accepting peer: %w", rank, err)}
				return
			}
			p, err := acceptPeer(conn, rank, size, deadline)
			if err != nil {
				conn.Close()
				acceptCh <- acceptResult{err: err}
				return
			}
			acceptCh <- acceptResult{p: p}
		}
	}()

	var firstErr error
	for j := 0; j < rank && firstErr == nil; j++ {
		p, err := dialPeer(peerAddrs[j], rank, j, deadline)
		if err != nil {
			firstErr = err
			break
		}
		t.peers[j] = p
	}
	if firstErr != nil {
		// Abort the accept loop instead of letting it wait out the join
		// deadline; the channel is buffered, so its sends never block.
		ln.Close()
	}
	for k := 0; k < toAccept; k++ {
		res := <-acceptCh
		if res.err != nil {
			if firstErr == nil {
				firstErr = res.err
			}
			break // the accept goroutine stops at its first error
		}
		if t.peers[res.p.rank] != nil {
			res.p.conn.Close()
			if firstErr == nil {
				firstErr = fmt.Errorf("dist: duplicate connection from rank %d", res.p.rank)
			}
			continue
		}
		t.peers[res.p.rank] = res.p
	}
	if firstErr != nil {
		cleanup()
		return nil, firstErr
	}

	for _, p := range t.peers {
		if p == nil {
			continue
		}
		// Arm the per-chunk silence deadlines before the loops start (the
		// goroutine start orders these writes before any read or send).
		p.dr.timeout = t.timeout
		p.dw.timeout = t.timeout
		t.wg.Add(2)
		go t.readLoop(p)
		go t.heartbeatLoop(p)
	}
	return t, nil
}

func newPeer(rank int, conn net.Conn) *peer {
	dr := &deadlineReader{conn: conn}
	dw := &deadlineWriter{conn: conn}
	return &peer{
		rank: rank,
		conn: conn,
		dr:   dr,
		dw:   dw,
		br:   bufio.NewReaderSize(dr, ioChunk),
		bw:   bufio.NewWriterSize(dw, ioChunk),
		left: make(chan struct{}),
	}
}

// dialPeer connects to a lower-ranked peer, retrying while it may still be
// binding its listener, and identifies itself with a hello line.
func dialPeer(addr string, self, rank int, deadline time.Time) (*peer, error) {
	var conn net.Conn
	for {
		var err error
		conn, err = net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("dist: rank %d dialing rank %d at %s: %w", self, rank, addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	line, err := json.Marshal(meshHello{Rank: self})
	if err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetWriteDeadline(deadline)
	if _, err := conn.Write(append(line, '\n')); err != nil {
		conn.Close()
		return nil, fmt.Errorf("dist: rank %d hello to rank %d: %w", self, rank, err)
	}
	conn.SetWriteDeadline(time.Time{})
	return newPeer(rank, conn), nil
}

// acceptPeer reads the dialing peer's hello line and validates its rank.
// The hello runs under the absolute join deadline (the peer's deadline
// reader is not yet armed) and shares the frame reader's buffer, so bytes
// the handshake may have read ahead are kept.
func acceptPeer(conn net.Conn, self, size int, deadline time.Time) (*peer, error) {
	conn.SetReadDeadline(deadline)
	p := newPeer(-1, conn)
	line, err := p.br.ReadBytes('\n')
	if err != nil {
		return nil, fmt.Errorf("dist: rank %d reading peer hello: %w", self, err)
	}
	var hello meshHello
	if err := json.Unmarshal(line, &hello); err != nil {
		return nil, fmt.Errorf("dist: rank %d parsing peer hello: %w", self, err)
	}
	if hello.Rank <= self || hello.Rank >= size {
		return nil, fmt.Errorf("dist: rank %d got hello from unexpected rank %d", self, hello.Rank)
	}
	conn.SetReadDeadline(time.Time{})
	p.rank = hello.Rank
	return p, nil
}

// Send implements comm.Transport: one data frame to dst, serialized under
// the peer's write lock so heartbeats and data frames interleave at frame
// granularity.
func (t *transport) Send(dst, tag int, buf []float32) error {
	select {
	case <-t.failed:
		return t.failErr
	default:
	}
	p := t.peers[dst]
	if p == nil {
		return fmt.Errorf("dist: rank %d cannot send to rank %d (no connection)", t.rank, dst)
	}
	p.wmu.Lock()
	defer p.wmu.Unlock()
	err := writeFrame(p.bw, frameData, byte(tag), buf)
	if err == nil {
		err = p.bw.Flush()
	}
	if err != nil {
		err = fmt.Errorf("dist: rank %d sending to rank %d: %w", t.rank, dst, err)
		t.fail(err)
		return err
	}
	return nil
}

// Recv implements comm.Transport: the next message from src on tag.
// Messages already delivered are drained even after a failure, so a
// collective races ahead of peer-death detection when it can.
func (t *transport) Recv(src, tag int) ([]float32, error) {
	ch := t.inbox[src][tag]
	select {
	case buf := <-ch:
		return buf, nil
	default:
	}
	select {
	case buf := <-ch:
		return buf, nil
	case <-t.peers[src].left:
		// The reader pushed everything sent before the goodbye prior to
		// closing left, so anything still buffered wins.
		select {
		case buf := <-ch:
			return buf, nil
		default:
		}
		return nil, fmt.Errorf("dist: rank %d left the world", src)
	case <-t.failed:
		select {
		case buf := <-ch:
			return buf, nil
		default:
		}
		return nil, t.failErr
	}
}

// Release implements comm.Transport: buf becomes a receive buffer for a
// later frame of exactly its length.
func (t *transport) Release(buf []float32) { t.free.put(buf) }

// Close implements comm.Transport: announce a clean goodbye to every peer,
// then tear the mesh down. Callers must have quiesced the collectives (the
// training loop ends on a barrier).
func (t *transport) Close() error {
	t.closing.Store(true)
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		p.wmu.Lock()
		if err := writeFrame(p.bw, frameGoodbye, 0, nil); err == nil {
			p.bw.Flush()
		}
		p.wmu.Unlock()
	}
	close(t.stop)
	for _, p := range t.peers {
		if p != nil {
			p.conn.Close()
		}
	}
	t.wg.Wait()
	return nil
}

// abandon kills the mesh without a goodbye — the crash path (and its test
// hook): peers must discover the death through EOF or heartbeat timeout.
func (t *transport) abandon() {
	t.closing.Store(true)
	close(t.stop)
	for _, p := range t.peers {
		if p != nil {
			p.conn.Close()
		}
	}
	t.wg.Wait()
}

// fail records the first transport failure and wakes every blocked Recv.
func (t *transport) fail(err error) {
	t.failOnce.Do(func() {
		t.failErr = err
		close(t.failed)
	})
}

// readLoop demultiplexes one peer's frames into the per-tag inboxes. The
// peer's deadline reader bounds silence, not frame duration: heartbeats
// arrive every hb interval and every read refreshes the deadline, so a
// deadline expiry means the peer is gone even if its TCP connection never
// reset, while an arbitrarily large frame that keeps trickling in is fine.
func (t *transport) readLoop(p *peer) {
	defer t.wg.Done()
	for {
		kind, tag, buf, err := readFrame(p.br, &t.free)
		if err != nil {
			if t.closing.Load() {
				return
			}
			select {
			case <-p.left:
				// EOF after a goodbye is the expected connection tail.
				return
			default:
			}
			t.fail(fmt.Errorf("dist: rank %d lost rank %d: %w", t.rank, p.rank, err))
			return
		}
		switch kind {
		case frameHeartbeat:
			// Liveness only; receiving it reset the read deadline.
		case frameGoodbye:
			close(p.left)
			return
		case frameData:
			if int(tag) >= comm.MaxTags {
				t.fail(fmt.Errorf("dist: rank %d sent invalid tag %d", p.rank, tag))
				return
			}
			select {
			case t.inbox[p.rank][tag] <- buf:
			case <-t.stop:
				return
			}
		default:
			t.fail(fmt.Errorf("dist: rank %d sent unknown frame kind %d", p.rank, kind))
			return
		}
	}
}

// heartbeatLoop keeps the peer's read deadline fed while the collectives
// are idle (between epochs, during compute).
func (t *transport) heartbeatLoop(p *peer) {
	defer t.wg.Done()
	tick := time.NewTicker(t.hb)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			p.wmu.Lock()
			err := writeFrame(p.bw, frameHeartbeat, 0, nil)
			if err == nil {
				err = p.bw.Flush()
			}
			p.wmu.Unlock()
			if err != nil {
				if !t.closing.Load() {
					t.fail(fmt.Errorf("dist: rank %d heartbeat to rank %d: %w", t.rank, p.rank, err))
				}
				return
			}
		case <-p.left:
			return
		case <-t.stop:
			return
		case <-t.failed:
			return
		}
	}
}

// recycler keeps the most recently released receive buffers, at most max
// of them, dropping the oldest beyond that (tensor.BufPool would keep
// every buffer it is given). A buffer is reused only for a frame of
// exactly its length, so a stale length ages out instead of pinning its
// slot. The zero recycler keeps nothing.
type recycler struct {
	mu   sync.Mutex
	max  int
	free [][]float32 // oldest first
}

// get returns a buffer of length n with unspecified contents.
func (r *recycler) get(n int) []float32 {
	r.mu.Lock()
	for i, b := range r.free {
		if len(b) == n {
			r.free = slices.Delete(r.free, i, i+1)
			r.mu.Unlock()
			return b
		}
	}
	r.mu.Unlock()
	return make([]float32, n) // outside the lock: a miss may zero megabytes
}

func (r *recycler) put(b []float32) {
	if len(b) == 0 || r.max == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.free) == r.max {
		r.free = slices.Delete(r.free, 0, 1)
	}
	r.free = append(r.free, b)
}

// float32Bytes views buf's memory as bytes. On a little-endian host (Join
// refuses any other) they are exactly buf's CFT1 payload.
func float32Bytes(buf []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(buf))), 4*len(buf))
}

// writeFrame emits one frame. A nil/empty buf writes an empty body (the
// barrier token for data frames; always for control frames). A data body
// is the CFT1 header followed by buf's own bytes.
func writeFrame(w io.Writer, kind, tag byte, buf []float32) error {
	var hdrBuf [6 + cftHeader1D]byte
	hdr := hdrBuf[:6]
	body := 0
	if len(buf) > 0 {
		body = cftHeader1D + 4*len(buf)
		if body > maxFrameBytes-2 {
			return fmt.Errorf("dist: %d-element message exceeds the %d-byte frame limit", len(buf), maxFrameBytes)
		}
		var err error
		if hdr, err = wire.EncodeHeader(hdr, wire.Float32, []int{len(buf)}); err != nil {
			return err
		}
	}
	binary.LittleEndian.PutUint32(hdr[:4], uint32(2+body))
	hdr[4] = kind
	hdr[5] = tag
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if len(buf) > 0 {
		if _, err := w.Write(float32Bytes(buf)); err != nil {
			return err
		}
	}
	return nil
}

// readFrame decodes one frame. A body must be a CFT1 tensor of 1-d float32
// whose header accounts for every body byte; its payload is read straight
// into a buffer from free.
func readFrame(br *bufio.Reader, free *recycler) (kind, tag byte, buf []float32, err error) {
	var hdr [6]byte
	if _, err = io.ReadFull(br, hdr[:]); err != nil {
		return
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n < 2 || n > maxFrameBytes {
		err = fmt.Errorf("dist: frame length %d out of range", n)
		return
	}
	kind, tag = hdr[4], hdr[5]
	body := int(n) - 2
	if body == 0 {
		if kind == frameData {
			buf = []float32{}
		}
		return
	}
	// Peek covers the longest CFT1 header, or the whole body if shorter,
	// so a 2-d header is rejected as 2-d and a short one as truncated.
	head, perr := br.Peek(min(body, 8+4*wire.MaxDims))
	if perr != nil {
		err = fmt.Errorf("dist: reading frame body: %w", perr)
		return
	}
	dtype, dims, off, herr := wire.PeekHeader(head)
	if herr != nil {
		err = fmt.Errorf("dist: decoding frame body: %w", herr)
		return
	}
	if dtype != wire.Float32 || len(dims) != 1 {
		err = fmt.Errorf("dist: frame body is %v/%dd, want 1-d float32", dtype, len(dims))
		return
	}
	if want := int64(off) + 4*int64(dims[0]); want != int64(body) {
		err = fmt.Errorf("dist: frame body is %d bytes, its CFT1 header says %d", body, want)
		return
	}
	br.Discard(off) // cannot fail: Peek buffered these bytes
	buf = free.get(dims[0])
	if _, err = io.ReadFull(br, float32Bytes(buf)); err != nil {
		err = fmt.Errorf("dist: reading frame payload: %w", err)
		buf = nil
	}
	return
}
