// Package dist runs the comm collectives between real OS processes: a TCP
// point-to-point transport (length-prefixed frames carrying CFT1-encoded
// buffers, the serving API's tensor codec) plus a rank-0 rendezvous that
// assigns ranks and distributes the peer address map. It is the
// cross-process counterpart of the Cray PE ML Plugin's communication layer
// (§III-D): the collectives themselves — ring, recursive doubling, central
// — are untouched in internal/comm and run identically over either
// transport, so a TCP world is bit-identical to the in-process world at
// the same seed.
//
// Failure model: every connection carries heartbeats, and a reader that
// sees neither data nor a heartbeat within the peer timeout (or that hits
// EOF without a goodbye frame) declares the peer dead, failing the local
// transport. The collective in flight then panics with
// *comm.TransportError, which train.RunDistributed converts into an
// ordinary error; the process exits nonzero, and the launcher (or
// operator) relaunches the whole world, which resumes from the last
// checkpoint rank 0 wrote. There is no in-place membership change — the
// paper's fully synchronous SSGD has no meaningful world minus a rank.
package dist

import (
	"fmt"
	"net"
	"time"

	"repro/internal/comm"
)

// Config describes one process's membership in a TCP world.
type Config struct {
	// Size is the world size; every member must agree on it.
	Size int
	// Rank is this process's rank. Rank 0 hosts the rendezvous and must
	// be started with Rank set to 0; other processes may request a
	// specific rank or pass -1 for arrival-order assignment.
	Rank int
	// Rendezvous is the address rank 0 listens on and everyone else
	// dials, e.g. "127.0.0.1:29500".
	Rendezvous string
	// ListenAddr is the data-plane listen address (default
	// "127.0.0.1:0"; use a routable host for multi-machine worlds). The
	// chosen port is advertised through the rendezvous.
	ListenAddr string
	// Algorithm and Helpers configure the collectives exactly as for an
	// in-process world; bit-identity across the two requires matching
	// values.
	Algorithm comm.Algorithm
	Helpers   int
	// HeartbeatEvery is the keepalive send interval (default 500ms).
	HeartbeatEvery time.Duration
	// PeerTimeout is how long a silent connection may stay silent before
	// its peer is declared dead (default 5s; must exceed HeartbeatEvery).
	PeerTimeout time.Duration
	// JoinTimeout bounds the whole rendezvous + mesh establishment
	// (default 30s).
	JoinTimeout time.Duration

	// RendezvousListener optionally hands rank 0 a pre-bound listener, so
	// address is known before Join races the workers.
	RendezvousListener net.Listener
}

func (c *Config) fillDefaults() error {
	if c.Size < 1 {
		return fmt.Errorf("dist: world size %d must be positive", c.Size)
	}
	if c.Rank >= c.Size {
		return fmt.Errorf("dist: rank %d outside world of size %d", c.Rank, c.Size)
	}
	if c.Rank < 0 && c.Size == 1 {
		c.Rank = 0
	}
	if c.Rendezvous == "" && c.RendezvousListener == nil && c.Size > 1 {
		return fmt.Errorf("dist: rendezvous address required")
	}
	if c.ListenAddr == "" {
		c.ListenAddr = "127.0.0.1:0"
	}
	if c.Helpers < 1 {
		c.Helpers = 1 // comm's own clamp; normalized here so the
		// rendezvous config-agreement check treats 0 and 1 as equal
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 500 * time.Millisecond
	}
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = 5 * time.Second
	}
	if c.PeerTimeout <= c.HeartbeatEvery {
		return fmt.Errorf("dist: peer timeout %v must exceed heartbeat interval %v",
			c.PeerTimeout, c.HeartbeatEvery)
	}
	if c.JoinTimeout <= 0 {
		c.JoinTimeout = 30 * time.Second
	}
	return nil
}

// World is one process's membership in an established TCP world.
type World struct {
	rank, size int
	cw         *comm.World
	c          *comm.Comm
	tr         *transport
}

// Join performs the rendezvous, establishes the full data-plane mesh, and
// returns this process's world membership. It blocks until every rank has
// joined or the join timeout expires.
func Join(cfg Config) (*World, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	// The data-plane listener binds first so the rendezvous can advertise
	// its concrete port.
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("dist: binding data listener %s: %w", cfg.ListenAddr, err)
	}
	selfAddr := ln.Addr().String()

	rank := cfg.Rank
	var peers []string
	if rank == 0 {
		peers, err = hostRendezvous(cfg, selfAddr)
	} else {
		rank, peers, err = joinRendezvous(cfg, selfAddr)
	}
	if err != nil {
		ln.Close()
		return nil, err
	}

	tr, err := connect(cfg, rank, peers, ln)
	ln.Close() // mesh complete; no further connections expected
	if err != nil {
		return nil, err
	}
	cw, err := comm.NewWorldWithTransport(cfg.Size, rank, tr,
		comm.WithAlgorithm(cfg.Algorithm), comm.WithHelpers(cfg.Helpers))
	if err != nil {
		tr.abandon()
		return nil, err
	}
	return &World{rank: rank, size: cfg.Size, cw: cw, c: cw.Comm(rank), tr: tr}, nil
}

// Rank returns this process's assigned rank.
func (w *World) Rank() int { return w.rank }

// Size returns the world size.
func (w *World) Size() int { return w.size }

// Comm returns the communicator for this process's rank; all comm
// collectives run over the TCP mesh.
func (w *World) Comm() *comm.Comm { return w.c }

// BytesSent returns this process's cumulative collective payload bytes.
func (w *World) BytesSent() int64 { return w.cw.BytesSent() }

// MessagesSent returns this process's cumulative message count.
func (w *World) MessagesSent() int64 { return w.cw.MessagesSent() }

// Close announces a clean departure to every peer and tears the mesh
// down. The collectives must be quiescent (the training loop's final
// barrier guarantees it).
func (w *World) Close() error { return w.tr.Close() }
