package gateway

import (
	"encoding/json"
	"errors"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/serve/api"
)

// fakeClock is a hand-advanced time source for the determinism tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestTokenBucketRefillDeterminism pins the bucket's refill arithmetic
// to the injected clock: identical clock sequences yield identical
// admit/deny decisions and Retry-After values, with no wall-time input.
func TestTokenBucketRefillDeterminism(t *testing.T) {
	clk := newFakeClock()
	tb := newTokenBucket(2, 2, clk.now()) // 2 rps, burst 2

	for i := 0; i < 2; i++ {
		if ok, _ := tb.take(clk.now()); !ok {
			t.Fatalf("burst take %d refused", i)
		}
	}
	ok, retry := tb.take(clk.now())
	if ok {
		t.Fatal("empty bucket admitted a request")
	}
	if retry != 500*time.Millisecond {
		t.Fatalf("retryAfter = %v, want 500ms (1 token at 2 rps)", retry)
	}

	// Half a second accrues exactly one token — and only one.
	clk.advance(500 * time.Millisecond)
	if ok, _ := tb.take(clk.now()); !ok {
		t.Fatal("refilled token refused")
	}
	if ok, _ := tb.take(clk.now()); ok {
		t.Fatal("second take admitted without refill")
	}

	// A long idle period caps at burst, never beyond.
	clk.advance(time.Hour)
	for i := 0; i < 2; i++ {
		if ok, _ := tb.take(clk.now()); !ok {
			t.Fatalf("post-idle take %d refused", i)
		}
	}
	if ok, _ := tb.take(clk.now()); ok {
		t.Fatal("bucket refilled past burst")
	}

	// Replaying the same clock sequence on a fresh bucket reproduces the
	// same decisions — refill is a pure function of the clock.
	clk2 := newFakeClock()
	tb2 := newTokenBucket(2, 2, clk2.now())
	var got []bool
	for i := 0; i < 4; i++ {
		ok, _ := tb2.take(clk2.now())
		got = append(got, ok)
		clk2.advance(250 * time.Millisecond)
	}
	// burst 2 admits twice; by t=500ms the two 250ms steps have accrued a
	// full token (admit); at t=750ms only half a token has returned (deny).
	want := []bool{true, true, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replay decision %d = %v, want %v (sequence %v)", i, got[i], want[i], got)
		}
	}
}

func testTenant(t *testing.T, tt *tenantTable, spec api.Tenant) *tenant {
	t.Helper()
	if err := tt.upsert(spec); err != nil {
		t.Fatal(err)
	}
	ten, err := tt.resolve(spec.Key)
	if err != nil {
		t.Fatal(err)
	}
	return ten
}

// TestAdmissionPriorityFairness saturates a capacity-1 gate, parks one
// waiter per class, and asserts releases unpark in strict priority order
// — premium first, best-effort last — regardless of arrival order.
func TestAdmissionPriorityFairness(t *testing.T) {
	clk := newFakeClock()
	a := newAdmission(AdmissionConfig{Capacity: 1, QueueDepth: 8, QueueTimeout: 5 * time.Second}, clk.now)
	tt := newTenantTable(clk.now)
	prem := testTenant(t, tt, api.Tenant{Key: "p", Class: api.ClassPremium})
	std := testTenant(t, tt, api.Tenant{Key: "s", Class: api.ClassStandard})
	be := testTenant(t, tt, api.Tenant{Key: "b", Class: api.ClassBestEffort})

	_, release, err := a.acquire(nil, std)
	if err != nil {
		t.Fatal(err)
	}

	// Park best-effort, then standard, then premium — worst arrival order
	// for priority service.
	order := make(chan string, 3)
	var wg sync.WaitGroup
	park := func(label string, ten *tenant, wantQueued int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, rel, err := a.acquire(nil, ten)
			if err != nil {
				t.Errorf("%s: %v", label, err)
				return
			}
			order <- label
			rel()
		}()
		waitFor(t, label+" parked", func() bool { return a.stats().Queued == wantQueued })
	}
	park("best-effort", be, 1)
	park("standard", std, 2)
	park("premium", prem, 3)

	release() // slot hands to premium, whose release hands to standard, etc.
	wg.Wait()
	close(order)
	var got []string
	for l := range order {
		got = append(got, l)
	}
	want := []string{"premium", "standard", "best-effort"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("unpark order = %v, want %v", got, want)
		}
	}
	if prem.admitted.Load() != 1 || std.admitted.Load() != 2 || be.admitted.Load() != 1 {
		t.Fatalf("admitted counters: prem %d std %d be %d",
			prem.admitted.Load(), std.admitted.Load(), be.admitted.Load())
	}
}

// TestAdmissionShedsBestEffortFirst fills the gate and each class queue
// to its bound and asserts the shallower best-effort queue sheds with
// OVERLOADED while premium still has headroom.
func TestAdmissionShedsBestEffortFirst(t *testing.T) {
	clk := newFakeClock()
	a := newAdmission(AdmissionConfig{Capacity: 1, QueueDepth: 4, QueueTimeout: time.Minute}, clk.now)
	tt := newTenantTable(clk.now)
	prem := testTenant(t, tt, api.Tenant{Key: "p", Class: api.ClassPremium})
	be := testTenant(t, tt, api.Tenant{Key: "b", Class: api.ClassBestEffort})

	if _, _, err := a.acquire(nil, prem); err != nil {
		t.Fatal(err)
	}

	// Best-effort queues at half depth (2); the third arrival sheds.
	beDepth := a.depth(rankBestEffort)
	if beDepth != 2 {
		t.Fatalf("best-effort depth = %d, want 2", beDepth)
	}
	for i := 0; i < beDepth; i++ {
		go func() { _, _, _ = a.acquire(nil, be) }()
	}
	waitFor(t, "best-effort queue full", func() bool { return a.stats().Queued == beDepth })
	_, _, err := a.acquire(nil, be)
	var shed *shedError
	if !errors.As(err, &shed) || shed.code != api.CodeOverloaded {
		t.Fatalf("full best-effort queue: err = %v, want OVERLOADED shed", err)
	}
	if shed.retryAfterSeconds() < 1 {
		t.Fatalf("Retry-After %ds, want >= 1", shed.retryAfterSeconds())
	}
	if be.shed.Load() != 1 {
		t.Fatalf("best-effort shed counter = %d, want 1", be.shed.Load())
	}

	// Premium still has queue room (depth 8) at the same instant.
	done := make(chan struct{})
	ok := make(chan error, 1)
	go func() {
		_, _, err := a.acquire(done, prem)
		ok <- err
	}()
	waitFor(t, "premium parked", func() bool { return a.stats().Queued == beDepth+1 })
	close(done) // give up cleanly; parking without a shed is the assertion
	if err := <-ok; err == nil {
		t.Fatal("premium waiter admitted with no release — capacity accounting broken")
	} else if errors.As(err, &shed) && shed.code == api.CodeOverloaded && shed.msg == "premium admission queue full" {
		t.Fatalf("premium shed on arrival: %v", err)
	}
}

// TestRateLimitBeforeQueue pins the order of the front door: a tenant
// over its rate limit sheds with RATE_LIMITED before consuming any queue
// space, with Retry-After derived from the bucket.
func TestRateLimitBeforeQueue(t *testing.T) {
	clk := newFakeClock()
	a := newAdmission(AdmissionConfig{Capacity: 4, QueueDepth: 4, QueueTimeout: time.Second}, clk.now)
	tt := newTenantTable(clk.now)
	ten := testTenant(t, tt, api.Tenant{Key: "k", Class: api.ClassStandard, RatePerSec: 1, Burst: 1})

	if _, rel, err := a.acquire(nil, ten); err != nil {
		t.Fatal(err)
	} else {
		rel()
	}
	_, _, err := a.acquire(nil, ten)
	var shed *shedError
	if !errors.As(err, &shed) || shed.code != api.CodeRateLimited {
		t.Fatalf("over-limit acquire: err = %v, want RATE_LIMITED", err)
	}
	if ten.rateLimited.Load() != 1 {
		t.Fatalf("rateLimited counter = %d, want 1", ten.rateLimited.Load())
	}
	if a.stats().Queued != 0 {
		t.Fatal("rate-limited request consumed queue space")
	}
	clk.advance(time.Second)
	if _, _, err := a.acquire(nil, ten); err != nil {
		t.Fatalf("post-refill acquire: %v", err)
	}
}

// TestStatsV1PayloadDecodes is the byte-compatibility regression: a
// recorded v1 /stats payload (no schema field, no tenancy blocks, and the
// two gateway counters v2 dropped) still decodes into GatewayStatsResponse
// with every kept v1 field intact, and a v1-shaped response marshals with
// no v2 keys leaking in and exactly the four kept gateway counters.
func TestStatsV1PayloadDecodes(t *testing.T) {
	// Verbatim shape of a pre-v2 gateway's answer.
	recorded := `{
	  "uptime_s": 12.5,
	  "policy": "least-outstanding",
	  "gateway": {"requests": 100, "errors": 2, "retries": 5, "hedges": 1, "hedge_wins": 1, "scattered": 7},
	  "backends": [
	    {"backend": "http://127.0.0.1:9001", "state": "ready", "outstanding": 0,
	     "requests": 60, "errors": 1, "consec_fails": 0, "ready_models": ["cosmoflow"]}
	  ]
	}`
	var resp api.GatewayStatsResponse
	if err := json.Unmarshal([]byte(recorded), &resp); err != nil {
		t.Fatalf("v1 payload no longer decodes: %v", err)
	}
	if resp.Schema != "" {
		t.Fatalf("v1 payload decoded with schema %q, want empty", resp.Schema)
	}
	if resp.UptimeS != 12.5 || resp.Policy != "least-outstanding" {
		t.Fatalf("v1 scalar fields lost: %+v", resp)
	}
	if resp.Gateway != (api.GatewayStats{Requests: 100, Errors: 2, Retries: 5, Scattered: 7}) {
		t.Fatalf("v1 gateway counters lost: %+v", resp.Gateway)
	}
	if len(resp.Backends) != 1 || resp.Backends[0].Backend != "http://127.0.0.1:9001" {
		t.Fatalf("v1 backends lost: %+v", resp.Backends)
	}
	if resp.Tenants != nil || resp.Admission != nil {
		t.Fatal("v1 payload grew v2 blocks out of nothing")
	}

	// Round-trip: a response with only v1 fields set must marshal to only
	// v1 keys — the omitempty contract that keeps v1 consumers working.
	out, err := json.Marshal(api.GatewayStatsResponse{
		UptimeS: 1, Policy: "least-outstanding",
		Gateway:  api.GatewayStats{Requests: 1},
		Backends: []api.BackendStatus{},
	})
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(out, &keys); err != nil {
		t.Fatal(err)
	}
	for k := range keys {
		switch k {
		case "uptime_s", "policy", "gateway", "backends":
		default:
			t.Fatalf("v1-shaped response marshaled unexpected key %q", k)
		}
	}

	// Every GatewayStats field set (so omitempty hides none): the counters
	// object carries exactly the kept keys, and nothing dropped can creep
	// back onto the wire.
	var full api.GatewayStats
	fv := reflect.ValueOf(&full).Elem()
	for i := 0; i < fv.NumField(); i++ {
		fv.Field(i).SetInt(int64(i + 1))
	}
	out, err = json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	var ctrs map[string]json.RawMessage
	if err := json.Unmarshal(out, &ctrs); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range ctrs {
		got = append(got, k)
	}
	sort.Strings(got)
	if want := []string{"errors", "requests", "retries", "scattered"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("fully populated GatewayStats marshaled keys %v, want exactly %v", got, want)
	}
}
