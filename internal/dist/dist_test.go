package dist

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
)

// newLocalWorld joins an n-process-shaped world over real localhost TCP:
// every rank runs in its own goroutine with its own Join, rendezvous, and
// socket mesh, exactly as separate processes would. The returned slice is
// indexed by rank.
func newLocalWorld(t testing.TB, n int, opts Config) []*World {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	worlds := make([]*World, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		cfg := opts
		cfg.Size = n
		cfg.Rendezvous = ln.Addr().String()
		if cfg.JoinTimeout == 0 {
			cfg.JoinTimeout = 10 * time.Second
		}
		if i == 0 {
			cfg.Rank = 0
			cfg.RendezvousListener = ln
		} else if cfg.Rank == 0 {
			cfg.Rank = -1 // auto-assign unless the test requested ranks
		}
		wg.Add(1)
		go func(i int, cfg Config) {
			defer wg.Done()
			w, err := Join(cfg)
			if err != nil {
				errs[i] = err
				return
			}
			worlds[w.Rank()] = w
		}(i, cfg)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("joiner %d: %v", i, err)
		}
	}
	for r, w := range worlds {
		if w == nil {
			t.Fatalf("no world claimed rank %d", r)
		}
	}
	return worlds
}

func closeAll(t testing.TB, worlds []*World) {
	t.Helper()
	var wg sync.WaitGroup
	for _, w := range worlds {
		wg.Add(1)
		go func(w *World) {
			defer wg.Done()
			w.Close()
		}(w)
	}
	wg.Wait()
}

// runRanks executes fn concurrently on every rank, converting a
// *comm.TransportError panic into a returned error (the same recovery
// train.RunDistributed performs).
func runRanks(worlds []*World, fn func(w *World)) []error {
	errs := make([]error, len(worlds))
	var wg sync.WaitGroup
	for i, w := range worlds {
		wg.Add(1)
		go func(i int, w *World) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if te, ok := r.(*comm.TransportError); ok {
						errs[i] = te
						return
					}
					panic(r)
				}
			}()
			fn(w)
		}(i, w)
	}
	wg.Wait()
	return errs
}

func noErrors(t testing.TB, errs []error) {
	t.Helper()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func randomInputs(n, size int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float32, n)
	for r := range out {
		out[r] = make([]float32, size)
		for i := range out[r] {
			out[r][i] = float32(rng.NormFloat64())
		}
	}
	return out
}

func clone(in [][]float32) [][]float32 {
	out := make([][]float32, len(in))
	for i := range in {
		out[i] = append([]float32(nil), in[i]...)
	}
	return out
}

func TestJoinAssignsRanksAndRequests(t *testing.T) {
	worlds := newLocalWorld(t, 4, Config{})
	defer closeAll(t, worlds)
	for r, w := range worlds {
		if w.Rank() != r || w.Size() != 4 {
			t.Fatalf("world at index %d reports rank %d size %d", r, w.Rank(), w.Size())
		}
	}
	noErrors(t, runRanks(worlds, func(w *World) { w.Comm().Barrier() }))
	if worlds[0].MessagesSent() == 0 {
		t.Error("barrier sent no messages")
	}
}

// TestTCPCollectivesBitIdenticalToInProcess is the core tentpole
// invariant: every collective over the TCP mesh produces bit-for-bit the
// same buffers as the in-process channel world.
func TestTCPCollectivesBitIdenticalToInProcess(t *testing.T) {
	const n = 4
	for _, tc := range []struct {
		name string
		size int
	}{
		{"ring", 1037},    // odd length: uneven ring segments
		{"ring-3elem", 3}, // ring segments of 0 and 1 elements
	} {
		t.Run(tc.name, func(t *testing.T) {
			inputs := randomInputs(n, tc.size, 42)
			block := min(8, tc.size)

			inproc, err := comm.NewWorld(n)
			if err != nil {
				t.Fatal(err)
			}
			wantSum := clone(inputs)
			wantScatter := clone(inputs)
			wantLo, wantHi := make([]int, n), make([]int, n)
			wantGather := make([][]float32, n)
			var wg sync.WaitGroup
			for _, c := range inproc.Comms() {
				wg.Add(1)
				go func(c *comm.Comm) {
					defer wg.Done()
					r := c.Rank()
					c.AllReduceSum(wantSum[r])
					wantLo[r], wantHi[r] = c.ReduceScatterSum(wantScatter[r])
					wantGather[r] = make([]float32, n*block)
					c.AllGather(inputs[r][:block], wantGather[r])
				}(c)
			}
			wg.Wait()

			worlds := newLocalWorld(t, n, Config{})
			defer closeAll(t, worlds)
			gotSum := clone(inputs)
			gotScatter := clone(inputs)
			gotLo, gotHi := make([]int, n), make([]int, n)
			gotGather := make([][]float32, n)
			bcast := make([][]float32, n)
			noErrors(t, runRanks(worlds, func(w *World) {
				c := w.Comm()
				r := w.Rank()
				c.AllReduceSum(gotSum[r])
				gotLo[r], gotHi[r] = c.ReduceScatterSum(gotScatter[r])
				gotGather[r] = make([]float32, n*block)
				c.AllGather(inputs[r][:block], gotGather[r])
				bcast[r] = append([]float32(nil), inputs[r]...)
				c.Broadcast(bcast[r], 2)
				c.Barrier()
			}))
			for r := 0; r < n; r++ {
				for i := range gotSum[r] {
					if gotSum[r][i] != wantSum[r][i] {
						t.Fatalf("rank %d AllReduceSum[%d] = %v over TCP, %v in-process",
							r, i, gotSum[r][i], wantSum[r][i])
					}
					if bcast[r][i] != inputs[2][i] {
						t.Fatalf("rank %d Broadcast[%d] = %v, want root's %v",
							r, i, bcast[r][i], inputs[2][i])
					}
				}
				if gotLo[r] != wantLo[r] || gotHi[r] != wantHi[r] {
					t.Fatalf("rank %d ReduceScatterSum owns [%d, %d) over TCP, [%d, %d) in-process",
						r, gotLo[r], gotHi[r], wantLo[r], wantHi[r])
				}
				for i := gotLo[r]; i < gotHi[r]; i++ {
					if math.Float32bits(gotScatter[r][i]) != math.Float32bits(wantScatter[r][i]) {
						t.Fatalf("rank %d ReduceScatterSum[%d] = %v over TCP, %v in-process",
							r, i, gotScatter[r][i], wantScatter[r][i])
					}
				}
				for i := range gotGather[r] {
					if gotGather[r][i] != wantGather[r][i] {
						t.Fatalf("rank %d AllGather[%d] differs", r, i)
					}
				}
			}
		})
	}
}

func TestExplicitRankRequestHonored(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	worlds := make([]*World, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		cfg := Config{Size: n, Rendezvous: ln.Addr().String(), JoinTimeout: 10 * time.Second}
		switch i {
		case 0:
			cfg.Rank = 0
			cfg.RendezvousListener = ln
		case 1:
			cfg.Rank = 2 // explicitly claim the last rank
		default:
			cfg.Rank = -1
		}
		wg.Add(1)
		go func(i int, cfg Config) {
			defer wg.Done()
			w, err := Join(cfg)
			if err != nil {
				errs[i] = err
				return
			}
			worlds[i] = w
		}(i, cfg)
	}
	wg.Wait()
	noErrors(t, errs)
	if worlds[1].Rank() != 2 {
		t.Errorf("requested rank 2, got %d", worlds[1].Rank())
	}
	if worlds[2].Rank() != 1 {
		t.Errorf("auto-assigned worker got rank %d, want 1", worlds[2].Rank())
	}
	all := []*World{worlds[0], worlds[2], worlds[1]}
	closeAll(t, all)
}

// TestMismatchedCollectiveConfigRejectedAtJoin: a worker built at an older
// rendezvous version, whose collectives may differ from this build's (a
// version-2 member could run another allreduce algorithm), is refused by
// rank 0 at join instead of corrupting collectives mid-epoch. The hello is
// written over a raw connection, as such a worker would send it; rank 0
// refuses it on the version before reading any other field.
func TestMismatchedCollectiveConfigRejectedAtJoin(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	joined := make(chan error, 1)
	go func() {
		w, err := Join(Config{Size: 2, Rank: 0, RendezvousListener: ln, JoinTimeout: 5 * time.Second})
		if err == nil {
			w.Close()
		}
		joined <- err
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write([]byte(`{"v":2,"type":"hello","addr":"127.0.0.1:1","rank":-1}` + "\n")); err != nil {
		t.Fatal(err)
	}
	err = <-joined
	if err == nil {
		t.Fatal("rank 0 accepted a version-2 hello")
	}
	if msg := err.Error(); !strings.Contains(msg, "version 2") ||
		!strings.Contains(msg, fmt.Sprintf("want %d", rdzvVersion)) {
		t.Errorf("rank 0's error %q does not name both versions", msg)
	}
	if reply, err := readMsg(conn, maxHelloBytes); err != nil || reply.Type != "error" {
		t.Errorf("refused worker got %+v, %v; want an error message", reply, err)
	}
}

// TestPeerDeathFailsCollectives kills one rank without a goodbye; the
// survivors' in-flight collectives must fail with *comm.TransportError
// within the peer timeout instead of hanging.
func TestPeerDeathFailsCollectives(t *testing.T) {
	worlds := newLocalWorld(t, 3, Config{
		HeartbeatEvery: 50 * time.Millisecond,
		PeerTimeout:    400 * time.Millisecond,
	})
	noErrors(t, runRanks(worlds, func(w *World) { w.Comm().Barrier() }))

	worlds[2].tr.abandon() // crash: no goodbye frame

	done := make(chan []error, 1)
	go func() {
		survivors := worlds[:2]
		done <- runRanks(survivors, func(w *World) {
			buf := make([]float32, 64)
			w.Comm().AllReduceSum(buf)
		})
	}()
	select {
	case errs := <-done:
		for r, err := range errs {
			var te *comm.TransportError
			if !errors.As(err, &te) {
				t.Fatalf("rank %d: error %v, want *comm.TransportError", r, err)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("survivors hung past the peer timeout")
	}
	closeAll(t, worlds[:2])
}

// TestInvalidTagFailsCollectives: a data frame on a tag stream outside
// [0, comm.MaxTags) is a protocol violation. The receiving rank's
// transport must fail, so its collectives end in *comm.TransportError
// instead of indexing past its inboxes.
func TestInvalidTagFailsCollectives(t *testing.T) {
	worlds := newLocalWorld(t, 2, Config{})
	defer closeAll(t, worlds)
	noErrors(t, runRanks(worlds, func(w *World) { w.Comm().Barrier() }))

	p := worlds[1].tr.peers[0]
	p.wmu.Lock()
	err := writeFrame(p.bw, frameData, comm.MaxTags, []float32{1})
	if err == nil {
		err = p.bw.Flush()
	}
	p.wmu.Unlock()
	if err != nil {
		t.Fatal(err)
	}

	errs := runRanks(worlds[:1], func(w *World) {
		buf := make([]float32, 8)
		w.Comm().AllReduceSum(buf)
	})
	var te *comm.TransportError
	if !errors.As(errs[0], &te) {
		t.Fatalf("rank 0: error %v, want *comm.TransportError", errs[0])
	}
	if !strings.Contains(te.Error(), "invalid tag") {
		t.Errorf("error %v does not name the invalid tag", te)
	}
}

// TestCleanDepartureIsDistinguishable: a peer that Closes announces a
// goodbye, and later collectives involving it error with a "left the
// world" message rather than a timeout.
func TestCleanDepartureIsDistinguishable(t *testing.T) {
	worlds := newLocalWorld(t, 2, Config{
		HeartbeatEvery: 50 * time.Millisecond,
		PeerTimeout:    2 * time.Second,
	})
	noErrors(t, runRanks(worlds, func(w *World) { w.Comm().Barrier() }))
	worlds[1].Close()

	start := time.Now()
	errs := runRanks(worlds[:1], func(w *World) {
		buf := make([]float32, 8)
		w.Comm().AllReduceSum(buf)
	})
	if errs[0] == nil {
		t.Fatal("collective with a departed peer succeeded")
	}
	if !strings.Contains(errs[0].Error(), "left the world") {
		t.Errorf("error %v does not identify a clean departure", errs[0])
	}
	if time.Since(start) > time.Second {
		t.Errorf("clean departure took %v to detect; should not wait for the peer timeout", time.Since(start))
	}
	worlds[0].Close()
}

// TestMessagesSurviveDeparture: data sent before a goodbye is still
// receivable after it — departure drains, it does not discard.
func TestMessagesSurviveDeparture(t *testing.T) {
	worlds := newLocalWorld(t, 2, Config{})
	// Rank 1: send one half of a symmetric pairwise exchange, then
	// leave. Rank 0 must still receive the payload.
	payload := []float32{1, 2, 3}
	if err := worlds[1].tr.Send(0, 0, payload); err != nil {
		t.Fatal(err)
	}
	worlds[1].Close()
	time.Sleep(100 * time.Millisecond) // let the goodbye land first
	got, err := worlds[0].tr.Recv(1, 0)
	if err != nil {
		t.Fatalf("pre-goodbye message lost: %v", err)
	}
	for i, v := range payload {
		if got[i] != v {
			t.Fatalf("payload[%d] = %v, want %v", i, got[i], v)
		}
	}
	if _, err := worlds[0].tr.Recv(1, 0); err == nil {
		t.Fatal("recv after drained goodbye should error")
	}
	worlds[0].Close()
}

// TestEmptyAndLargeMessages exercises the framing edges: the zero-length
// barrier token and a buffer larger than the connection's write buffer.
func TestEmptyAndLargeMessages(t *testing.T) {
	worlds := newLocalWorld(t, 2, Config{})
	defer closeAll(t, worlds)
	big := make([]float32, 1<<17) // 512 KB payload, span many bufio flushes
	for i := range big {
		big[i] = float32(i%251) * 0.5
	}
	noErrors(t, runRanks(worlds, func(w *World) {
		c := w.Comm()
		if w.Rank() == 0 {
			if err := w.tr.Send(1, 3, nil); err != nil {
				t.Error(err)
			}
			buf := append([]float32(nil), big...)
			c.AllReduceSum(buf)
		} else {
			got, err := w.tr.Recv(0, 3)
			if err != nil || len(got) != 0 {
				t.Errorf("empty message roundtrip: %v (len %d)", err, len(got))
			}
			buf := append([]float32(nil), big...)
			c.AllReduceSum(buf)
		}
	}))
}
