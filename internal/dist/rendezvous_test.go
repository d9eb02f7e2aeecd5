package dist

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// countingListener counts the bytes rank 0 reads from every accepted
// connection.
type countingListener struct {
	net.Listener
	read atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, read: &l.read}, nil
}

type countingConn struct {
	net.Conn
	read *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

// TestRendezvousLineBounded: a line four times readMsg's limit with no
// newline is refused, and no more than limit+1 bytes of it are read, at
// the hello bound, at a world bound, and at rank 0's listener.
func TestRendezvousLineBounded(t *testing.T) {
	for _, limit := range []int{maxHelloBytes, maxWorldBytes(3)} {
		cr := &countingReader{r: bytes.NewReader(bytes.Repeat([]byte{'a'}, 4*limit))}
		if _, err := readMsg(cr, limit); err == nil || !strings.Contains(err.Error(), "longer than") {
			t.Errorf("limit %d: a line of 4×limit bytes gave %v, want a length error", limit, err)
		}
		if cr.n > limit+1 {
			t.Errorf("limit %d: read %d bytes of a line of 4×limit", limit, cr.n)
		}
	}
	// A line of exactly the limit, newline included, is read whole.
	prefix := fmt.Sprintf(`{"v":%d,"type":"hello","addr":"127.0.0.1:1","rank":-1,"msg":"`, rdzvVersion)
	line := []byte(prefix + strings.Repeat("x", maxHelloBytes-len(prefix)-3) + "\"}\n")
	if m, err := readMsg(bytes.NewReader(line), maxHelloBytes); err != nil || m.Addr != "127.0.0.1:1" {
		t.Errorf("a line of exactly the limit: %+v, %v", m, err)
	}
	if _, err := readMsg(bytes.NewReader(append([]byte{' '}, line...)), maxHelloBytes); err == nil {
		t.Error("a line one byte over the limit was accepted")
	}

	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &countingListener{Listener: inner}
	joined := make(chan error, 1)
	go func() {
		w, err := Join(Config{Size: 2, Rank: 0, RendezvousListener: ln, JoinTimeout: 5 * time.Second})
		if err == nil {
			w.Close()
		}
		joined <- err
	}()
	conn, err := net.Dial("tcp", inner.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	// Four limits' worth fits the loopback socket buffers, so the write
	// completes whether or not rank 0 reads it.
	if _, err := conn.Write(bytes.Repeat([]byte{'a'}, 4*maxHelloBytes)); err != nil {
		t.Fatal(err)
	}
	if err := <-joined; err == nil || !strings.Contains(err.Error(), "longer than") {
		t.Fatalf("rank 0 joined after an over-long hello: %v", err)
	}
	if n := ln.read.Load(); n > maxHelloBytes+1 {
		t.Errorf("rank 0 read %d bytes of an over-long hello, limit %d", n, maxHelloBytes)
	}
}

// FuzzReadRendezvousMsg: readMsg never panics on arbitrary bytes, never
// reads past its limit + 1, and a message it accepts re-encodes losslessly:
// writeMsg's line reads back as the same message.
func FuzzReadRendezvousMsg(f *testing.F) {
	for _, m := range []rdzvMsg{
		{Type: "hello", Addr: "127.0.0.1:40001", Rank: -1},
		{Type: "world", Rank: 1, Size: 2, Peers: []string{"127.0.0.1:40000", "127.0.0.1:40001"}},
	} {
		var b bytes.Buffer
		if err := writeMsg(&b, m); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	f.Add([]byte(`{"v":2,"type":"hello","addr":"127.0.0.1:40001","rank":-1}` + "\n"))
	f.Add(bytes.Repeat([]byte{'a'}, maxHelloBytes+1))

	f.Fuzz(func(t *testing.T, data []byte) {
		cr := &countingReader{r: bytes.NewReader(data)}
		m, err := readMsg(cr, maxHelloBytes)
		if cr.n > maxHelloBytes+1 {
			t.Fatalf("read %d bytes, limit %d", cr.n, maxHelloBytes)
		}
		if err != nil {
			return
		}
		var b bytes.Buffer
		if err := writeMsg(&b, m); err != nil {
			t.Fatalf("re-encoding %+v: %v", m, err)
		}
		back, err := readMsg(&b, b.Len())
		if err != nil {
			t.Fatalf("re-encoded %+v does not read back: %v", m, err)
		}
		// omitempty writes an empty peer list as none.
		if len(m.Peers) == 0 {
			m.Peers = nil
		}
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("re-encoded %+v reads back as %+v", m, back)
		}
	})
}
