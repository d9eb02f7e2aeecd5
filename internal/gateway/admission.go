package gateway

// Admission control: the multi-tenant front door in front of the router.
// Every predict resolves an API key to a tenant (priority class + token
// bucket), pays its own rate limit first, then competes for one of a
// bounded number of concurrent admission slots. When the gateway is
// saturated, requests park in per-class FIFO queues served in strict
// priority order (premium before standard before best-effort), each
// bounded in depth and wait — so overload sheds best-effort traffic with
// 429 + Retry-After before any backend sees it, and premium latency
// stays flat. Queue wait is attributed per request (obsv.RequestTrace
// "queue_wait" phase) and per tenant (GET /stats v2).

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve/api"
)

// clock is the time source admission runs on, injectable so refill
// tests are deterministic.
type clock func() time.Time

// Priority ranks, in service order. Strict priority: a lower rank is
// always dequeued first.
const (
	rankPremium = iota
	rankStandard
	rankBestEffort
	numClasses
)

// classRank maps an api.Class* name to its rank; unknown or empty
// classes are standard.
func classRank(class string) int {
	switch class {
	case api.ClassPremium:
		return rankPremium
	case api.ClassBestEffort:
		return rankBestEffort
	}
	return rankStandard
}

func rankClass(rank int) string {
	switch rank {
	case rankPremium:
		return api.ClassPremium
	case rankBestEffort:
		return api.ClassBestEffort
	}
	return api.ClassStandard
}

// ---- token bucket ----

// tokenBucket is a standard lazy-refill token bucket. All methods take
// the current time explicitly so refill is a pure function of the clock
// — the property the determinism test pins with a fake clock.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64 // bucket depth
	tokens float64
	last   time.Time
}

func newTokenBucket(rate, burst float64, now time.Time) *tokenBucket {
	if burst <= 0 {
		burst = math.Max(1, rate)
	}
	return &tokenBucket{rate: rate, burst: burst, tokens: burst, last: now}
}

// take spends one token; when the bucket is empty it reports how long
// until the next token accrues (the Retry-After value).
func (tb *tokenBucket) take(now time.Time) (ok bool, retryAfter time.Duration) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if elapsed := now.Sub(tb.last).Seconds(); elapsed > 0 {
		tb.tokens = math.Min(tb.burst, tb.tokens+elapsed*tb.rate)
	}
	tb.last = now
	if tb.tokens >= 1 {
		tb.tokens--
		return true, 0
	}
	if tb.rate <= 0 {
		return false, time.Second
	}
	need := (1 - tb.tokens) / tb.rate
	return false, time.Duration(need * float64(time.Second))
}

// ---- tenants ----

// tenant is one admission principal at runtime: its spec, resolved
// rank, optional bucket, and counters. Counters survive spec updates
// (upsert replaces the bucket, not the tenant).
type tenant struct {
	mu     sync.Mutex // guards spec + bucket swap
	spec   api.Tenant
	rank   int32
	bucket atomic.Pointer[tokenBucket] // nil = unlimited

	admitted    atomic.Int64
	rateLimited atomic.Int64
	shed        atomic.Int64
	queueNs     atomic.Int64
}

func (t *tenant) update(spec api.Tenant, now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if spec.Name == "" {
		spec.Name = spec.Key
	}
	if spec.Class == "" {
		spec.Class = api.ClassStandard
	}
	t.spec = spec
	atomic.StoreInt32(&t.rank, int32(classRank(spec.Class)))
	if spec.RatePerSec > 0 {
		t.bucket.Store(newTokenBucket(spec.RatePerSec, spec.Burst, now))
	} else {
		t.bucket.Store(nil)
	}
}

func (t *tenant) snapshot() api.Tenant {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spec
}

func (t *tenant) stats() api.TenantStats {
	spec := t.snapshot()
	st := api.TenantStats{
		Name:        spec.Name,
		Class:       spec.Class,
		Admitted:    t.admitted.Load(),
		RateLimited: t.rateLimited.Load(),
		Shed:        t.shed.Load(),
	}
	if st.Admitted > 0 {
		st.AvgQueueMs = float64(t.queueNs.Load()) / float64(st.Admitted) / 1e6
	}
	return st
}

// tenantTable is the hot-reloadable API-key → tenant map. When empty,
// the gateway runs open: every request is the anonymous standard-class
// tenant with no rate limit. The first configured tenant turns
// authentication on for the data plane.
type tenantTable struct {
	now   clock
	mu    sync.RWMutex
	byKey map[string]*tenant
	anon  *tenant
}

func newTenantTable(now clock) *tenantTable {
	tt := &tenantTable{now: now, byKey: map[string]*tenant{}, anon: &tenant{}}
	tt.anon.update(api.Tenant{Key: "", Name: "anonymous", Class: api.ClassStandard}, now())
	return tt
}

// errUnknownKey is the 401 path: authentication is required (tenants are
// configured) and the presented key resolved to nothing.
var errUnknownKey = errors.New("gateway: unknown or missing API key")

// resolve maps a request's API key to its tenant.
func (tt *tenantTable) resolve(key string) (*tenant, error) {
	tt.mu.RLock()
	defer tt.mu.RUnlock()
	if len(tt.byKey) == 0 {
		return tt.anon, nil
	}
	if t, ok := tt.byKey[key]; ok && key != "" {
		return t, nil
	}
	return nil, errUnknownKey
}

// upsert installs or updates a tenant; counters persist across updates.
func (tt *tenantTable) upsert(spec api.Tenant) error {
	if spec.Key == "" {
		return errors.New("gateway: tenant key is required")
	}
	switch spec.Class {
	case "", api.ClassPremium, api.ClassStandard, api.ClassBestEffort:
	default:
		return fmt.Errorf("gateway: unknown tenant class %q (want %s, %s, or %s)",
			spec.Class, api.ClassPremium, api.ClassStandard, api.ClassBestEffort)
	}
	if spec.RatePerSec < 0 || spec.Burst < 0 {
		return errors.New("gateway: tenant rate and burst must be non-negative")
	}
	tt.mu.Lock()
	defer tt.mu.Unlock()
	t, ok := tt.byKey[spec.Key]
	if !ok {
		t = &tenant{}
		tt.byKey[spec.Key] = t
	}
	t.update(spec, tt.now())
	return nil
}

// remove deletes a tenant by key, reporting whether it existed.
func (tt *tenantTable) remove(key string) bool {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	_, ok := tt.byKey[key]
	delete(tt.byKey, key)
	return ok
}

// list snapshots the table sorted by key.
func (tt *tenantTable) list() []api.Tenant {
	tt.mu.RLock()
	out := make([]api.Tenant, 0, len(tt.byKey))
	for _, t := range tt.byKey {
		out = append(out, t.snapshot())
	}
	tt.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// stats snapshots every tenant's counters (including the anonymous
// tenant when it has seen traffic), sorted by name.
func (tt *tenantTable) stats() []api.TenantStats {
	tt.mu.RLock()
	tenants := make([]*tenant, 0, len(tt.byKey)+1)
	for _, t := range tt.byKey {
		tenants = append(tenants, t)
	}
	tt.mu.RUnlock()
	if tt.anon.admitted.Load()+tt.anon.rateLimited.Load()+tt.anon.shed.Load() > 0 {
		tenants = append(tenants, tt.anon)
	}
	out := make([]api.TenantStats, 0, len(tenants))
	for _, t := range tenants {
		out = append(out, t.stats())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ---- admission queue ----

// AdmissionConfig bounds the gateway's concurrent work and the queues in
// front of it. Zero values take the documented defaults.
type AdmissionConfig struct {
	// Capacity is how many requests may hold an admission slot at once
	// (in queue-theory terms, the server count; default 64).
	Capacity int
	// QueueDepth bounds the standard-class queue; premium queues 2x as
	// deep, best-effort half (min 1). A request arriving at a full class
	// queue is shed immediately (default 64).
	QueueDepth int
	// QueueTimeout bounds one request's queue wait; a waiter that cannot
	// be admitted in time is shed with 429 + Retry-After (default 5s).
	QueueTimeout time.Duration
}

func (c *AdmissionConfig) applyDefaults() {
	if c.Capacity <= 0 {
		c.Capacity = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 5 * time.Second
	}
}

// shedError is a 429 decision: why, and how long the client should back
// off. It renders as the typed envelope with a Retry-After header.
type shedError struct {
	code       string // api.CodeRateLimited or api.CodeOverloaded
	msg        string
	retryAfter time.Duration
}

func (e *shedError) Error() string { return e.msg }

// retryAfterSeconds rounds the backoff up to the whole seconds the
// Retry-After header speaks, minimum 1.
func (e *shedError) retryAfterSeconds() int {
	s := int(math.Ceil(e.retryAfter.Seconds()))
	if s < 1 {
		s = 1
	}
	return s
}

// waiter is one parked request in a class queue.
type waiter struct {
	ch       chan struct{} // closed when a slot is handed over
	admitted bool          // set under admission.mu before ch closes
}

// admission is the bounded-concurrency gate. Slots transfer directly
// from a releasing request to the highest-priority waiter, so a full
// gateway never reorders across classes: premium always unparks first.
type admission struct {
	cfg AdmissionConfig
	now clock

	mu       sync.Mutex
	inflight int
	queues   [numClasses][]*waiter

	admitted atomic.Int64
	shedN    atomic.Int64
}

func newAdmission(cfg AdmissionConfig, now clock) *admission {
	cfg.applyDefaults()
	return &admission{cfg: cfg, now: now}
}

// depth returns the queue bound for a class rank: premium queues twice
// as deep as standard, best-effort half as deep — the "shed best-effort
// first" knob that complements strict-priority dequeue.
func (a *admission) depth(rank int) int {
	switch rank {
	case rankPremium:
		return 2 * a.cfg.QueueDepth
	case rankBestEffort:
		d := a.cfg.QueueDepth / 2
		if d < 1 {
			d = 1
		}
		return d
	}
	return a.cfg.QueueDepth
}

// acquire admits one request for the tenant, blocking in its class queue
// when the gateway is saturated. On success the returned release func
// must be called exactly once; wait is the time spent queued. On shed it
// returns a *shedError (429) with the class-appropriate code.
func (a *admission) acquire(done <-chan struct{}, t *tenant) (wait time.Duration, release func(), err error) {
	// The tenant's own rate limit is paid first: a rate-limited request
	// never consumes queue space that admitted traffic needs.
	if b := t.bucket.Load(); b != nil {
		if ok, retry := b.take(a.now()); !ok {
			t.rateLimited.Add(1)
			a.shedN.Add(1)
			return 0, nil, &shedError{
				code:       api.CodeRateLimited,
				msg:        fmt.Sprintf("tenant %s over rate limit", t.snapshot().Name),
				retryAfter: retry,
			}
		}
	}
	rank := int(atomic.LoadInt32(&t.rank))
	a.mu.Lock()
	if a.inflight < a.cfg.Capacity {
		a.inflight++
		a.mu.Unlock()
		t.admitted.Add(1)
		a.admitted.Add(1)
		return 0, a.release, nil
	}
	if len(a.queues[rank]) >= a.depth(rank) {
		a.mu.Unlock()
		t.shed.Add(1)
		a.shedN.Add(1)
		return 0, nil, &shedError{
			code:       api.CodeOverloaded,
			msg:        fmt.Sprintf("%s admission queue full", rankClass(rank)),
			retryAfter: a.cfg.QueueTimeout,
		}
	}
	w := &waiter{ch: make(chan struct{})}
	a.queues[rank] = append(a.queues[rank], w)
	a.mu.Unlock()

	enq := a.now()
	timer := time.NewTimer(a.cfg.QueueTimeout)
	defer timer.Stop()
	admitted := false
	select {
	case <-w.ch:
		admitted = true
	case <-timer.C:
	case <-done:
	}
	if !admitted {
		// Lost the race or gave up: remove ourselves unless a release
		// handed us the slot in the meantime (then keep it — it is ours).
		a.mu.Lock()
		if w.admitted {
			admitted = true
		} else {
			q := a.queues[rank]
			for i, other := range q {
				if other == w {
					a.queues[rank] = append(q[:i], q[i+1:]...)
					break
				}
			}
		}
		a.mu.Unlock()
	}
	wait = a.now().Sub(enq)
	if !admitted {
		t.shed.Add(1)
		a.shedN.Add(1)
		select {
		case <-done:
			return wait, nil, errors.New("gateway: client went away while queued")
		default:
		}
		return wait, nil, &shedError{
			code:       api.CodeOverloaded,
			msg:        fmt.Sprintf("%s admission queue wait exceeded %v", rankClass(rank), a.cfg.QueueTimeout),
			retryAfter: a.cfg.QueueTimeout,
		}
	}
	t.admitted.Add(1)
	t.queueNs.Add(int64(wait))
	a.admitted.Add(1)
	return wait, a.release, nil
}

// release returns a slot: handed straight to the highest-priority waiter
// when any are parked, else freed.
func (a *admission) release() {
	a.mu.Lock()
	for rank := 0; rank < numClasses; rank++ {
		if q := a.queues[rank]; len(q) > 0 {
			w := q[0]
			a.queues[rank] = q[1:]
			w.admitted = true
			close(w.ch)
			a.mu.Unlock()
			return
		}
	}
	a.inflight--
	a.mu.Unlock()
}

// stats snapshots the controller for GET /stats v2.
func (a *admission) stats() api.AdmissionStats {
	a.mu.Lock()
	st := api.AdmissionStats{Capacity: a.cfg.Capacity, Inflight: a.inflight}
	for _, q := range a.queues {
		st.Queued += len(q)
	}
	a.mu.Unlock()
	st.Admitted = a.admitted.Load()
	st.Shed = a.shedN.Load()
	return st
}
