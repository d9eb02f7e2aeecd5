// Command cosmoflow-loadgen is a closed-loop load generator for
// cosmoflow-serve and cosmoflow-gateway: c workers each keep one request
// in flight against the v1 predict route until n requests complete, then
// it reports achieved QPS and the latency distribution (p50/p90/p99) —
// the measurement harness for the serving subsystem, in the spirit of the
// paper's scaling methodology (fixed work per worker, wall-clock
// throughput).
//
// Requests go through the typed v1 client (internal/serve/client) in
// either encoding, so the same harness measures the JSON-vs-binary wire
// comparison end to end:
//
//	cosmoflow-loadgen -addr http://localhost:8080 -n 256 -c 8 -dim 16 -wire binary
//
// Against a gateway it also reports the per-backend spread (from the
// X-Cosmoflow-Backend response header), and -sweep runs one invocation
// over several concurrency levels so scaling tables come from a single
// run:
//
//	cosmoflow-loadgen -addr http://localhost:8090 -n 256 -sweep 1,2,4,8
//
// -dump-body writes one encoded request body to a file and exits, for
// raw-HTTP tests of the v1 surface (the e2e suite's TestAPI uses it).
//
// -tenants runs the multi-tenant overload scenario against a gateway:
// each spec is label:apikey:workers:requests, all tenants drive the
// gateway concurrently through their own WithAPIKey clients, and one
// machine-parseable result line per tenant reports qps/p50/p99 plus the
// shed (429) and failure (5xx/transport) counts. A 429 is the admission
// controller doing its job — it never fails the run; 5xx and transport
// errors do (the e2e suite's TestTenancy runs it):
//
//	cosmoflow-loadgen -addr http://localhost:8090 \
//	    -tenants "prem:PK:4:200,std:SK:16:400,be:BK:16:400"
//
// The table is for looking at one deployment; performance claims go
// through benchmark/'s predict.* workloads. Exit status is non-zero if any request fails, so
// scripts can assert the zero-error acceptance criterion.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cosmo"
	"repro/internal/serve/client"
)

type encodedBody struct {
	data []byte
	ct   string
}

// runResult is one closed-loop run's measurement.
type runResult struct {
	elapsed  time.Duration
	ok       []time.Duration // successful latencies, sorted ascending
	failures int64
	spread   map[string]int64 // backend → served count (gateway runs only)
}

// runLoad drives n closed-loop requests over c workers and collects the
// latency distribution plus the per-backend spread.
func runLoad(cl *client.Client, model string, bodies []encodedBody, n, c int) runResult {
	ctx := context.Background()
	var next atomic.Int64
	var failures atomic.Int64
	latencies := make([]time.Duration, n)
	backends := make([]string, n)
	var wg sync.WaitGroup

	start := time.Now()
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				b := bodies[i%len(bodies)]
				t0 := time.Now()
				pr, err := cl.PredictEncoded(ctx, model, b.data, b.ct)
				if err != nil {
					// Excluded from the latency distribution: a fast
					// connection-refused or a slow client timeout would
					// both misrepresent the server.
					latencies[i] = -1
					failures.Add(1)
					log.Printf("request %d: %v", i, err)
					continue
				}
				latencies[i] = time.Since(t0)
				backends[i] = pr.Backend
			}
		}()
	}
	wg.Wait()
	return collect(time.Since(start), failures.Load(), latencies, backends)
}

// collect assembles a run's result from each request's latency (-1 for a
// request that did not succeed) and the backend that served it.
func collect(elapsed time.Duration, failures int64, latencies []time.Duration, backends []string) runResult {
	res := runResult{elapsed: elapsed, failures: failures, spread: map[string]int64{}}
	for i, l := range latencies {
		if l < 0 {
			continue
		}
		res.ok = append(res.ok, l)
		if backends[i] != "" {
			res.spread[backends[i]]++
		}
	}
	sort.Slice(res.ok, func(i, j int) bool { return res.ok[i] < res.ok[j] })
	return res
}

func (r runResult) quantile(p float64) time.Duration {
	if len(r.ok) == 0 {
		return 0
	}
	i := int(p * float64(len(r.ok)))
	if i >= len(r.ok) {
		i = len(r.ok) - 1
	}
	return r.ok[i]
}

func (r runResult) mean() time.Duration {
	if len(r.ok) == 0 {
		return 0
	}
	var sum time.Duration
	for _, l := range r.ok {
		sum += l
	}
	return sum / time.Duration(len(r.ok))
}

func (r runResult) qps() float64 {
	return float64(len(r.ok)) / r.elapsed.Seconds()
}

// printSpread reports how the pool shared the load; silent against a
// single backend (no X-Cosmoflow-Backend header in direct responses).
func printSpread(r runResult) {
	if len(r.spread) == 0 {
		return
	}
	addrs := make([]string, 0, len(r.spread))
	for a := range r.spread {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	fmt.Printf("backend spread:\n")
	for _, a := range addrs {
		fmt.Printf("  %-32s %5d (%4.1f%%)\n", a, r.spread[a],
			100*float64(r.spread[a])/float64(len(r.ok)))
	}
}

// tenantSpec is one -tenants entry: label:apikey:workers:requests.
type tenantSpec struct {
	label string
	key   string
	c     int
	n     int
}

func parseTenantSpecs(s string) ([]tenantSpec, error) {
	var specs []tenantSpec
	for _, f := range strings.Split(s, ",") {
		parts := strings.Split(strings.TrimSpace(f), ":")
		if len(parts) != 4 {
			return nil, fmt.Errorf("bad tenant spec %q (want label:apikey:workers:requests)", f)
		}
		c, err1 := strconv.Atoi(parts[2])
		n, err2 := strconv.Atoi(parts[3])
		if err1 != nil || err2 != nil || c < 1 || n < 1 {
			return nil, fmt.Errorf("bad tenant spec %q: workers and requests must be positive", f)
		}
		specs = append(specs, tenantSpec{label: parts[0], key: parts[1], c: c, n: n})
	}
	return specs, nil
}

// tenantResult is one tenant's closed-loop outcome: sheds (429, the
// admission controller working as designed) are tracked apart from
// failures (5xx/transport, which fail the run).
type tenantResult struct {
	runResult
	shed int64
}

// runTenant drives one tenant's closed loop. A 429 backs off per the
// server's Retry-After (capped so an overload demo still hammers), then
// the worker continues — the closed loop models a well-behaved client.
func runTenant(cl *client.Client, model string, bodies []encodedBody, spec tenantSpec) tenantResult {
	ctx := context.Background()
	var next, shed, failures atomic.Int64
	latencies := make([]time.Duration, spec.n)
	backends := make([]string, spec.n)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < spec.c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= spec.n {
					return
				}
				b := bodies[i%len(bodies)]
				t0 := time.Now()
				pr, err := cl.PredictEncoded(ctx, model, b.data, b.ct)
				if err != nil {
					latencies[i] = -1
					var apiErr *client.APIError
					if errors.As(err, &apiErr) && apiErr.StatusCode == 429 {
						shed.Add(1)
						backoff := apiErr.RetryAfter
						if backoff <= 0 || backoff > 200*time.Millisecond {
							backoff = 200 * time.Millisecond
						}
						time.Sleep(backoff)
						continue
					}
					failures.Add(1)
					log.Printf("tenant %s request %d: %v", spec.label, i, err)
					continue
				}
				latencies[i] = time.Since(t0)
				backends[i] = pr.Backend
			}
		}()
	}
	wg.Wait()
	return tenantResult{collect(time.Since(start), failures.Load(), latencies, backends), shed.Load()}
}

// runTenantScenario fans every tenant's closed loop out concurrently and
// prints one machine-parseable line per tenant.
func runTenantScenario(addr, model string, bodies []encodedBody, specs []tenantSpec, enc client.Encoding, timeout time.Duration) int {
	results := make([]tenantResult, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		cl := client.New(addr,
			client.WithEncoding(enc),
			client.WithTimeout(timeout),
			client.WithAPIKey(spec.key))
		wg.Add(1)
		go func(i int, spec tenantSpec) {
			defer wg.Done()
			results[i] = runTenant(cl, model, bodies, spec)
		}(i, spec)
	}
	wg.Wait()
	msOf := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	exit := 0
	for i, spec := range specs {
		r := results[i]
		// One line per tenant, key=value so scripts and tests parse it.
		fmt.Printf("tenant %s ok=%d shed=%d fail=%d qps=%.1f p50_ms=%.2f p99_ms=%.2f\n",
			spec.label, len(r.ok), r.shed, r.failures, r.qps(),
			msOf(r.quantile(0.50)), msOf(r.quantile(0.99)))
		if r.failures > 0 {
			exit = 1
		}
	}
	return exit
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("cosmoflow-loadgen: ")

	addr := flag.String("addr", "http://localhost:8080", "cosmoflow-serve or cosmoflow-gateway base URL")
	model := flag.String("model", "", "model name (empty: server default)")
	n := flag.Int("n", 256, "total requests (per sweep level when -sweep is set)")
	c := flag.Int("c", 8, "concurrent workers (closed loop: one request in flight each)")
	sweep := flag.String("sweep", "", "comma-separated concurrency levels to run in sequence (e.g. 1,2,4,8); overrides -c")
	dim := flag.Int("dim", 16, "voxel edge length of generated request volumes")
	channels := flag.Int("channels", 1, "input channels of generated request volumes")
	seed := flag.Int64("seed", 1, "synthetic sample seed")
	wireFlag := flag.String("wire", "binary", "request/response encoding: json or binary")
	timeout := flag.Duration("timeout", 60*time.Second, "per-request round-trip cap")
	apiKey := flag.String("api-key", "", "tenant API key sent with every request (gateway admission control)")
	tenantsFlag := flag.String("tenants", "", "multi-tenant scenario: comma-separated label:apikey:workers:requests specs (overrides -n/-c/-sweep)")
	dumpBody := flag.String("dump-body", "", "write one encoded request body to FILE and exit")
	flag.Parse()
	if *n < 1 || *c < 1 {
		log.Fatal("-n and -c must be positive")
	}
	enc, err := client.ParseEncoding(*wireFlag)
	if err != nil {
		log.Fatal(err)
	}
	var levels []int
	if *sweep != "" {
		for _, f := range strings.Split(*sweep, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || v < 1 {
				log.Fatalf("-sweep: bad concurrency level %q", f)
			}
			levels = append(levels, v)
		}
	}

	var tenantSpecs []tenantSpec
	if *tenantsFlag != "" {
		tenantSpecs, err = parseTenantSpecs(*tenantsFlag)
		if err != nil {
			log.Fatalf("-tenants: %v", err)
		}
	}

	// Pre-generate a pool of deterministic synthetic volumes and encode
	// them once, so request construction stays off the measured path and
	// the comparison isolates the wire + server cost per encoding.
	maxC := *c
	for _, l := range levels {
		if l > maxC {
			maxC = l
		}
	}
	for _, ts := range tenantSpecs {
		if ts.c > maxC {
			maxC = ts.c
		}
	}
	nSamples := maxC * 4
	if nSamples > *n {
		nSamples = *n
	}
	dims := []int{*channels, *dim, *dim, *dim}
	rng := rand.New(rand.NewSource(*seed))
	bodies := make([]encodedBody, nSamples)
	for i := range bodies {
		target := [3]float32{rng.Float32(), rng.Float32(), rng.Float32()}
		s := cosmo.SyntheticSample(*dim, target, rng.Int63())
		vox := s.Voxels
		if *channels > 1 {
			vox = make([]float32, 0, *channels*len(s.Voxels))
			for ch := 0; ch < *channels; ch++ {
				vox = append(vox, s.Voxels...)
			}
		}
		data, ct, err := client.EncodePredictRequest(enc, dims, vox)
		if err != nil {
			log.Fatal(err)
		}
		bodies[i] = encodedBody{data, ct}
	}

	if *dumpBody != "" {
		if err := os.WriteFile(*dumpBody, bodies[0].data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d-byte %s request body to %s\n", len(bodies[0].data), bodies[0].ct, *dumpBody)
		return
	}

	if len(tenantSpecs) > 0 {
		os.Exit(runTenantScenario(*addr, *model, bodies, tenantSpecs, enc, *timeout))
	}

	cl := client.New(*addr,
		client.WithEncoding(enc),
		client.WithTimeout(*timeout),
		client.WithAPIKey(*apiKey))

	if len(levels) > 0 {
		// Concurrency sweep: one table row per level, a shared request
		// pool, and the pooled transport warm across levels — the shape
		// EXPERIMENTS.md scaling tables are built from.
		fmt.Printf("sweep:       %d requests per level, encoding %s (%d-byte bodies)\n",
			*n, enc, len(bodies[0].data))
		fmt.Printf("%4s  %10s  %10s  %10s  %10s  %10s  %6s\n",
			"c", "qps", "mean", "p50", "p90", "p99", "errors")
		var totalFails int64
		for _, lvl := range levels {
			r := runLoad(cl, *model, bodies, *n, lvl)
			totalFails += r.failures
			fmt.Printf("%4d  %10.1f  %10v  %10v  %10v  %10v  %6d\n",
				lvl, r.qps(),
				r.mean().Round(time.Microsecond),
				r.quantile(0.50).Round(time.Microsecond),
				r.quantile(0.90).Round(time.Microsecond),
				r.quantile(0.99).Round(time.Microsecond),
				r.failures)
			printSpread(r)
		}
		if totalFails > 0 {
			os.Exit(1)
		}
		return
	}

	r := runLoad(cl, *model, bodies, *n, *c)
	fmt.Printf("requests:    %d (%d failed)\n", *n, r.failures)
	fmt.Printf("concurrency: %d workers (closed loop)\n", *c)
	fmt.Printf("encoding:    %s (%d-byte bodies)\n", enc, len(bodies[0].data))
	fmt.Printf("elapsed:     %v\n", r.elapsed.Round(time.Millisecond))
	fmt.Printf("throughput:  %.1f successful requests/s\n", r.qps())
	if len(r.ok) > 0 {
		fmt.Printf("latency:     mean %v  p50 %v  p90 %v  p99 %v  max %v\n",
			r.mean().Round(time.Microsecond),
			r.quantile(0.50).Round(time.Microsecond), r.quantile(0.90).Round(time.Microsecond),
			r.quantile(0.99).Round(time.Microsecond), r.ok[len(r.ok)-1].Round(time.Microsecond))
	}
	printSpread(r)
	if r.failures > 0 {
		os.Exit(1)
	}
}
