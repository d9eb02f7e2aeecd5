package dist

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"time"
)

// Rendezvous protocol: newline-delimited JSON over TCP, two message types.
// Rank 0 listens on the rendezvous address; every other worker dials it and
// sends a hello carrying its data-plane listener address and an optional
// rank request. Once size−1 workers have checked in, the server assigns
// ranks, builds the full peer address map (its own data address at index
// 0), and replies to each worker with the world message. The rendezvous
// connections then close; all further traffic is the framed data plane.
type rdzvMsg struct {
	V     int      `json:"v"`
	Type  string   `json:"type"` // "hello" | "world" | "error"
	Addr  string   `json:"addr,omitempty"`
	Rank  int      `json:"rank"`
	Size  int      `json:"size,omitempty"`
	Peers []string `json:"peers,omitempty"`
	Msg   string   `json:"msg,omitempty"`
}

// rdzvVersion names the wire layout, so members built against different
// layouts are refused at join rather than mid-collective. Version 2 was
// comm's four-stream tag numbering (version 1 had eleven); version 3 drops
// the allreduce algorithm from hello and world, since the ring is the only
// allreduce. A version-2 member could have been set to another algorithm.
const rdzvVersion = 3

// maxHelloBytes bounds a hello line, newline included: it carries one
// address and a rank.
const maxHelloBytes = 4 << 10

// maxWorldBytes bounds the world reply a worker of a size-rank world
// accepts: one hello's worth for each peer address, every one of which
// reached rank 0 in a hello, and one more for the rest of the message.
func maxWorldBytes(size int) int { return (size + 1) * maxHelloBytes }

func writeMsg(w io.Writer, m rdzvMsg) error {
	m.V = rdzvVersion
	line, err := json.Marshal(m)
	if err != nil {
		return err
	}
	_, err = w.Write(append(line, '\n'))
	return err
}

// readMsg reads one message, a JSON line of at most limit bytes with its
// newline, from r. It reads at most limit+1 bytes of r, so a peer that
// never sends a newline cannot make it buffer more.
func readMsg(r io.Reader, limit int) (rdzvMsg, error) {
	var m rdzvMsg
	line, err := bufio.NewReader(io.LimitReader(r, int64(limit)+1)).ReadBytes('\n')
	if len(line) > limit {
		return m, fmt.Errorf("dist: rendezvous message longer than %d bytes", limit)
	}
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(line, &m); err != nil {
		return m, fmt.Errorf("dist: parsing rendezvous message: %w", err)
	}
	if m.V != rdzvVersion {
		return m, fmt.Errorf("dist: rendezvous protocol version %d, want %d", m.V, rdzvVersion)
	}
	return m, nil
}

// hostRendezvous runs rank 0's side: collect size−1 hellos, assign ranks,
// distribute the peer map. Returns the peer address map.
func hostRendezvous(cfg Config, selfDataAddr string) ([]string, error) {
	ln := cfg.RendezvousListener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.Rendezvous)
		if err != nil {
			return nil, fmt.Errorf("dist: rank 0 binding rendezvous %s: %w", cfg.Rendezvous, err)
		}
	}
	defer ln.Close()
	deadline := time.Now().Add(cfg.JoinTimeout)
	if tl, ok := ln.(*net.TCPListener); ok {
		tl.SetDeadline(deadline)
	}

	peers := make([]string, cfg.Size)
	peers[0] = selfDataAddr
	type joiner struct {
		conn net.Conn
		req  rdzvMsg
	}
	joiners := make([]joiner, 0, cfg.Size-1)
	defer func() {
		for _, j := range joiners {
			j.conn.Close()
		}
	}()
	for len(joiners) < cfg.Size-1 {
		conn, err := ln.Accept()
		if err != nil {
			return nil, fmt.Errorf("dist: rendezvous waiting for %d more workers: %w",
				cfg.Size-1-len(joiners), err)
		}
		conn.SetDeadline(deadline)
		m, err := readMsg(conn, maxHelloBytes)
		if err != nil || m.Type != "hello" || m.Addr == "" {
			if err == nil {
				err = fmt.Errorf("dist: rendezvous expected hello, got %q", m.Type)
			}
			writeMsg(conn, rdzvMsg{Type: "error", Msg: err.Error()})
			conn.Close()
			return nil, err
		}
		joiners = append(joiners, joiner{conn: conn, req: m})
	}

	// Assign ranks: honor explicit requests first, then fill the rest in
	// arrival order with the lowest free ranks.
	assigned := make([]int, len(joiners))
	taken := make([]bool, cfg.Size)
	taken[0] = true
	for i, j := range joiners {
		r := j.req.Rank
		if r < 0 {
			assigned[i] = -1
			continue
		}
		if r == 0 || r >= cfg.Size || taken[r] {
			writeMsg(j.conn, rdzvMsg{Type: "error", Msg: fmt.Sprintf("rank %d invalid or taken", r)})
			return nil, fmt.Errorf("dist: worker requested rank %d (invalid or taken)", r)
		}
		assigned[i], taken[r] = r, true
	}
	next := 1
	for i := range assigned {
		if assigned[i] >= 0 {
			continue
		}
		for taken[next] {
			next++
		}
		assigned[i], taken[next] = next, true
	}
	for i, j := range joiners {
		peers[assigned[i]] = j.req.Addr
	}
	for i, j := range joiners {
		reply := rdzvMsg{Type: "world", Rank: assigned[i], Size: cfg.Size, Peers: peers}
		if err := writeMsg(j.conn, reply); err != nil {
			return nil, fmt.Errorf("dist: rendezvous replying to rank %d: %w", assigned[i], err)
		}
	}
	return peers, nil
}

// joinRendezvous runs a worker's side: dial rank 0 (retrying while it may
// still be binding), send the hello, and receive the assigned rank plus
// peer map.
func joinRendezvous(cfg Config, selfDataAddr string) (int, []string, error) {
	deadline := time.Now().Add(cfg.JoinTimeout)
	var conn net.Conn
	for {
		var err error
		conn, err = net.DialTimeout("tcp", cfg.Rendezvous, time.Second)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return 0, nil, fmt.Errorf("dist: dialing rendezvous %s: %w", cfg.Rendezvous, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	defer conn.Close()
	conn.SetDeadline(deadline)
	hello := rdzvMsg{Type: "hello", Addr: selfDataAddr, Rank: cfg.Rank}
	if err := writeMsg(conn, hello); err != nil {
		return 0, nil, fmt.Errorf("dist: sending hello: %w", err)
	}
	m, err := readMsg(conn, maxWorldBytes(cfg.Size))
	if err != nil {
		return 0, nil, fmt.Errorf("dist: waiting for world assignment: %w", err)
	}
	switch {
	case m.Type == "error":
		return 0, nil, fmt.Errorf("dist: rendezvous rejected join: %s", m.Msg)
	case m.Type != "world":
		return 0, nil, fmt.Errorf("dist: rendezvous sent %q, want world", m.Type)
	case m.Size != cfg.Size:
		return 0, nil, fmt.Errorf("dist: rendezvous world size %d, joined expecting %d", m.Size, cfg.Size)
	case m.Rank < 1 || m.Rank >= m.Size || len(m.Peers) != m.Size:
		return 0, nil, fmt.Errorf("dist: malformed world assignment (rank %d, %d peers)", m.Rank, len(m.Peers))
	}
	return m.Rank, m.Peers, nil
}
