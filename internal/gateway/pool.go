package gateway

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obsv"
	"repro/internal/serve/api"
	"repro/internal/serve/client"
)

// BackendState is a pool member's position in the routing state machine.
//
//	joining --probe ok--> ready <--> degraded
//	   any --consecutive failures--> ejected --cooldown + probe ok--> ready/degraded
type BackendState int32

// Pool member states. Ready and degraded backends are routable (a
// degraded one only for the models it reports ready); joining and
// ejected ones receive no new traffic.
const (
	StateJoining BackendState = iota
	StateReady
	StateDegraded
	StateEjected
)

// String maps the state onto the api.Backend* wire names.
func (s BackendState) String() string {
	switch s {
	case StateReady:
		return api.BackendReady
	case StateDegraded:
		return api.BackendDegraded
	case StateEjected:
		return api.BackendEjected
	}
	return api.BackendJoining
}

// Backend is one cosmoflow-serve process in the pool: a pooled typed
// client plus the health/placement snapshot from its last probe and the
// failure counters driving circuit-breaker ejection.
type Backend struct {
	addr string
	cl   *client.Client

	// Request-path counters (atomics: read by the router and /stats while
	// the proxy path writes them).
	outstanding atomic.Int64
	requests    atomic.Int64
	errors      atomic.Int64

	// upSpan accumulates this backend's upstream round-trip times; nil
	// unless the gateway was built with Config.Trace (pre-resolved at
	// construction so the proxy path never takes the recorder's lock).
	upSpan *obsv.Span

	mu          sync.Mutex
	state       BackendState
	consecFails int64
	ejectedAt   time.Time
	lastProbe   time.Time
	readyModels map[string]bool
	models      []api.ModelStatus
}

// Addr returns the backend's base URL (its pool identity).
func (b *Backend) Addr() string { return b.addr }

// Client returns the backend's typed client.
func (b *Backend) Client() *client.Client { return b.cl }

// State returns the backend's current routing state.
func (b *Backend) State() BackendState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Outstanding returns the gateway requests currently in flight on this
// backend — the least-outstanding policy's signal.
func (b *Backend) Outstanding() int64 { return b.outstanding.Load() }

// routable reports whether the router may send model traffic here: the
// backend answered its last probe (ready or degraded) and, when degraded,
// reports the model ready. model "" means "any traffic at all".
func (b *Backend) routable(model string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != StateReady && b.state != StateDegraded {
		return false
	}
	return model == "" || b.readyModels[model]
}

// reachable reports whether lifecycle broadcasts should include this
// backend: every state except ejected (a broadcast to a dead process
// would only mask the real failure behind a timeout). An ejected member
// therefore misses the op and may re-advertise stale state after
// re-admission — the gateway keeps no desired-state record, so operators
// converge it by repeating the (idempotent) fan-out; see DESIGN.md
// "Cluster serving".
func (b *Backend) reachable() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state != StateEjected
}

// recordFailure counts one transport-level failure (connect refused,
// reset, timeout) and opens the circuit once ejectAfter consecutive
// failures accumulate. HTTP-level errors do not land here: a backend that
// answers 5xx is alive, and probes govern its state.
func (b *Backend) recordFailure(ejectAfter int) {
	b.errors.Add(1)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecFails++
	if b.state != StateEjected && b.consecFails >= int64(ejectAfter) {
		b.state = StateEjected
		b.ejectedAt = time.Now()
	}
}

// recordSuccess closes the failure streak. State transitions stay with
// the prober: a single successful request does not re-admit an ejected
// backend, but it does reset the streak so recovery needs only one clean
// probe.
func (b *Backend) recordSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecFails = 0
}

// applyProbe installs a successful probe's snapshot: state from the
// health answer, per-model placement from the model list.
func (b *Backend) applyProbe(h *api.HealthResponse, models []api.ModelStatus) {
	ready := make(map[string]bool, len(models))
	for _, m := range models {
		if m.State == api.StateReady {
			ready[m.Name] = true
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecFails = 0
	b.lastProbe = time.Now()
	b.readyModels = ready
	b.models = models
	if h.Status == "ok" {
		b.state = StateReady
	} else {
		b.state = StateDegraded
	}
}

// probeFailed counts a failed probe toward ejection.
func (b *Backend) probeFailed(ejectAfter int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecFails++
	if b.state != StateEjected && b.consecFails >= int64(ejectAfter) {
		b.state = StateEjected
		b.ejectedAt = time.Now()
	}
}

// skipProbe reports whether the ejection cooldown is still running, so a
// freshly-dead backend is not hammered with probes before readmitAfter.
func (b *Backend) skipProbe(readmitAfter time.Duration) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == StateEjected && time.Since(b.ejectedAt) < readmitAfter
}

// status snapshots the backend for the gateway's aggregated /stats.
func (b *Backend) status() api.BackendStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := api.BackendStatus{
		Backend:     b.addr,
		State:       b.state.String(),
		Outstanding: b.outstanding.Load(),
		Requests:    b.requests.Load(),
		Errors:      b.errors.Load(),
		ConsecFails: b.consecFails,
		Models:      b.models,
	}
	for m := range b.readyModels {
		st.ReadyModels = append(st.ReadyModels, m)
	}
	sort.Strings(st.ReadyModels)
	if !b.lastProbe.IsZero() {
		st.LastProbeAgo = time.Since(b.lastProbe).Seconds()
	}
	return st
}

// Pool owns the backend set and the probe loops that drive each member's
// state machine. Membership is fixed when the gateway is built, the way
// a training allocation is: backends is written once in newPool and only
// read afterwards, so the request path walks it without a lock or copy.
type Pool struct {
	probeInterval time.Duration
	probeTimeout  time.Duration
	ejectAfter    int
	readmitAfter  time.Duration

	backends []*Backend

	stop chan struct{}
	wg   sync.WaitGroup
}

func newPool(addrs []string, cfg Config) *Pool {
	p := &Pool{
		probeInterval: cfg.ProbeInterval,
		probeTimeout:  cfg.ProbeTimeout,
		ejectAfter:    cfg.EjectAfter,
		readmitAfter:  cfg.ReadmitAfter,
		stop:          make(chan struct{}),
	}
	for _, a := range addrs {
		p.backends = append(p.backends, &Backend{
			addr: a,
			cl: client.New(a,
				client.WithEncoding(client.Binary),
				client.WithTimeout(cfg.BackendTimeout)),
		})
	}
	return p
}

// start launches one probe loop per backend, each probing immediately so
// the gateway converges on the pool's true state before the first
// interval elapses.
func (p *Pool) start() {
	for _, b := range p.backends {
		p.wg.Add(1)
		go func(b *Backend) {
			defer p.wg.Done()
			p.probe(b)
			t := time.NewTicker(p.probeInterval)
			defer t.Stop()
			for {
				select {
				case <-p.stop:
					return
				case <-t.C:
					p.probe(b)
				}
			}
		}(b)
	}
}

// close stops the probe loops.
func (p *Pool) close() {
	close(p.stop)
	p.wg.Wait()
}

// probe refreshes one backend: /healthz for liveness+readiness, then
// GET /v1/models for per-model placement (which models this member can
// serve) and the stats snapshot the gateway aggregates. A transport
// failure on either call counts toward ejection; an ejected backend is
// left alone until its cooldown, after which one clean probe re-admits
// it.
func (p *Pool) probe(b *Backend) {
	if b.skipProbe(p.readmitAfter) {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), p.probeTimeout)
	defer cancel()
	h, err := b.cl.Health(ctx)
	if err != nil {
		b.probeFailed(p.ejectAfter)
		return
	}
	models, err := b.cl.ListModels(ctx)
	if err != nil {
		b.probeFailed(p.ejectAfter)
		return
	}
	b.applyProbe(h, models)
}

// Backends returns the member set. The slice is shared and fixed for the
// pool's lifetime; callers must not modify it.
func (p *Pool) Backends() []*Backend { return p.backends }

// candidates returns the members that may serve the model right now,
// excluding any in tried (already failed for this request).
func (p *Pool) candidates(model string, tried map[*Backend]bool) []*Backend {
	var out []*Backend
	for _, b := range p.backends {
		if tried[b] {
			continue
		}
		if b.routable(model) {
			out = append(out, b)
		}
	}
	return out
}

// routableCount returns how many members accept any traffic.
func (p *Pool) routableCount() int {
	n := 0
	for _, b := range p.backends {
		if b.routable("") {
			n++
		}
	}
	return n
}

// modelAgg is the pool-wide view of one model name.
type modelAgg struct {
	name string
	// readyOn lists backends serving it now; rep is a representative
	// ModelStatus from a ready member (else from any member), for the
	// v1-compatible aggregated GET /v1/models answer.
	readyOn []string
	rep     api.ModelStatus
	anyLoad bool // some member still reports "loading"
}

// knownModels aggregates every model name any non-ejected member reports,
// sorted by name. Ejected members are excluded: their snapshot is stale
// by definition, and a model that only ever lived on a dead member should
// read as gone, not loading.
func (p *Pool) knownModels() []modelAgg {
	agg := map[string]*modelAgg{}
	for _, b := range p.backends {
		b.mu.Lock()
		if b.state == StateEjected || b.state == StateJoining {
			b.mu.Unlock()
			continue
		}
		for _, m := range b.models {
			a, ok := agg[m.Name]
			if !ok {
				a = &modelAgg{name: m.Name, rep: m}
				agg[m.Name] = a
			}
			switch m.State {
			case api.StateReady:
				if len(a.readyOn) == 0 {
					a.rep = m
				}
				a.readyOn = append(a.readyOn, b.addr)
			case api.StateLoading:
				a.anyLoad = true
			}
		}
		b.mu.Unlock()
	}
	out := make([]modelAgg, 0, len(agg))
	for _, a := range agg {
		sort.Strings(a.readyOn)
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
