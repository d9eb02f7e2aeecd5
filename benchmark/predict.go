package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cosmo"
	"repro/internal/gateway"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/serve"
	"repro/internal/serve/api"
	"repro/internal/serve/client"
	"repro/internal/serve/wire"
	"repro/internal/tensor"
)

// predictEnv is the serving stack after set-up, all in this process on
// loopback: client → gateway (one tenant, admission on) → serve (2 replicas
// × 1 worker, default batcher).
type predictEnv struct {
	model    *serve.Model
	srv      *serve.Server
	gwSrv    *gateway.Server
	serveURL string
	gwURL    string
	served   chan error // the two Serve calls' results
}

func topology(w workload, seed int64) nn.TopologyConfig {
	return nn.TopologyConfig{InputDim: w.Dim, BaseChannels: w.Base, Seed: seed}
}

// setupPredict does what an operator does before the first request: load
// the model and warm its replicas, start the backend, start the gateway in
// front of it, and probe the gateway until it reports ready.
func setupPredict(w workload, seed int64) (*predictEnv, error) {
	e := &predictEnv{served: make(chan error, 2)}
	reg := serve.NewRegistry()
	model, err := reg.Load(serve.ModelConfig{Topology: topology(w, seed), Replicas: 2, WorkersPerReplica: 1})
	if err != nil {
		reg.Close()
		return nil, fmt.Errorf("loading model: %w", err)
	}
	e.model = model
	e.srv = serve.NewServer(reg, "")
	sl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		reg.Close()
		return nil, err
	}
	go func() { e.served <- e.srv.Serve(sl) }()
	e.serveURL = "http://" + sl.Addr().String()

	gw, err := gateway.New(gateway.Config{
		Backends: []string{e.serveURL},
		Tenants:  []api.Tenant{{Key: tenantKey}},
	})
	if err != nil {
		e.close()
		return nil, fmt.Errorf("starting gateway: %w", err)
	}
	e.gwSrv = gateway.NewServer(gw, "")
	gl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		gw.Close()
		e.gwSrv = nil
		e.close()
		return nil, err
	}
	go func() { e.served <- e.gwSrv.Serve(gl) }()
	e.gwURL = "http://" + gl.Addr().String()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	probe := client.New(e.gwURL, client.WithAPIKey(tenantKey))
	for {
		h, err := probe.Health(ctx)
		if err == nil && h.Status == "ok" {
			return e, nil
		}
		if ctx.Err() != nil {
			e.close()
			return nil, fmt.Errorf("gateway never became ready: %v", err)
		}
		runtime.Gosched() // poll again at once: a sleep's granularity would be most of this set-up
	}
}

// close shuts both servers down and waits for their Serve calls to return.
func (e *predictEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	n := 0
	if e.gwSrv != nil {
		e.gwSrv.Shutdown(ctx)
		n++
	}
	if e.srv != nil {
		e.srv.Shutdown(ctx)
		n++
	}
	for ; n > 0; n-- {
		<-e.served
	}
	// Connections to the closed listeners would only fail later.
	client.SharedTransport().CloseIdleConnections()
}

// predictInput is the seed's request material: the volumes, the answers an
// in-benchmark network with the same seed gives for them, and the network
// itself for the kernel probe.
type predictInput struct {
	dims    []int
	voxels  [][]float32
	want    [][3]float32
	ref     *nn.Network
	refPool *parallel.Pool
}

func newPredictInput(w workload, seed int64) (*predictInput, error) {
	in := &predictInput{dims: []int{1, w.Dim, w.Dim, w.Dim}, refPool: parallel.NewPool(1)}
	topo := topology(w, seed)
	topo.Pool = in.refPool
	ref, err := nn.BuildCosmoFlow(topo)
	if err != nil {
		in.refPool.Close()
		return nil, err
	}
	in.ref = ref
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < predictInputs; i++ {
		target := [3]float32{rng.Float32(), rng.Float32(), rng.Float32()}
		v := cosmo.SyntheticSample(w.Dim, target, seed*1013+int64(i)).Voxels
		in.voxels = append(in.voxels, v)
		in.want = append(in.want, in.kernel(i, 1))
	}
	return in, nil
}

// kernel runs volume i through the reference network, as a batch of b
// copies of it, and returns the first answer.
func (in *predictInput) kernel(i, b int) [3]float32 {
	xs := make([]*tensor.Tensor, b)
	for k := range xs {
		xs[k] = tensor.FromData(in.voxels[i], in.dims...)
	}
	out := in.ref.InferBatch(xs)[0].Data()
	return [3]float32{out[0], out[1], out[2]}
}

// correct reports whether an answer to volume i is finite and within
// answerTol of the reference in every normalized output.
func (in *predictInput) correct(i int, got [3]float32) bool {
	for k, g := range got {
		d := float64(g) - float64(in.want[i][k])
		if math.IsNaN(d) || math.Abs(d) > answerTol {
			return false
		}
	}
	return true
}

// reqLog is one load generator's record of the timed window.
type reqLog struct {
	latMs     []float64 // correct answers only
	doneS     []float64 // completion time of each, seconds into the window
	lateMs    []float64 // open loop: how late each request was sent
	attempted int
	failed    int
	firstErr  string
}

// add counts one attempted request: a refused, errored or wrong answer is
// a failure and contributes no latency sample.
func (l *reqLog) add(latMs, doneS, lateMs float64, err error) {
	l.attempted++
	if err != nil {
		l.failed++
		if l.firstErr == "" {
			l.firstErr = err.Error()
		}
		return
	}
	l.latMs = append(l.latMs, latMs)
	l.doneS = append(l.doneS, doneS)
	l.lateMs = append(l.lateMs, lateMs)
}

func (l *reqLog) merge(o reqLog) {
	l.latMs = append(l.latMs, o.latMs...)
	l.doneS = append(l.doneS, o.doneS...)
	l.lateMs = append(l.lateMs, o.lateMs...)
	l.attempted += o.attempted
	l.failed += o.failed
	if l.firstErr == "" {
		l.firstErr = o.firstErr
	}
}

// openTiming is the open-loop accounting rule: latency runs from when the
// request was due, not from when the generator got round to sending it, and
// the generator's lateness is reported beside it.
func openTiming(due, sent, done time.Duration) (latMs, lateMs float64) {
	late := sent - due
	if late < 0 {
		late = 0
	}
	return float64(done-due) / 1e6, float64(late) / 1e6
}

// poissonSchedule returns the seed's arrival times: exponential gaps at
// `rate` per second, up to the horizon.
func poissonSchedule(seed int64, rate float64, horizon time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= horizon {
			return out
		}
		out = append(out, d)
	}
}

// requestOrder returns which volume each of n requests carries.
func requestOrder(seed int64, n int) []int {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(predictInputs)
	}
	return out
}

// doRequest sends volume i through cl and checks the answer. With a
// recorder it wraps the request, its encode and its round trip in spans.
func doRequest(ctx context.Context, cl *client.Client, in *predictInput, i, op int, rec *spanRec) error {
	req := rec.begin("predict.request", op)
	defer rec.end(req)
	id := rec.begin("wire.encode", op)
	body, ct, err := client.EncodePredictRequest(client.Binary, in.dims, in.voxels[i])
	rec.end(id)
	if err != nil {
		return err
	}
	id = rec.begin("client.roundtrip", op)
	resp, err := cl.PredictEncoded(ctx, serve.DefaultModel, body, ct)
	rec.end(id)
	if err != nil {
		return err
	}
	if !in.correct(i, resp.Normalized) {
		return fmt.Errorf("answer %v to volume %d differs from reference %v", resp.Normalized, i, in.want[i])
	}
	return nil
}

// loadGen drives the gateway for warm-up + window and returns the window's
// record. Closed loop: each of w.Clients clients sends its next request when
// the previous one completes. Open loop: w.Clients connections take the
// seed's Poisson arrivals in order, each sleeping until its request is due.
// recs, when non-nil, holds one span recorder per client.
func loadGen(w workload, e *predictEnv, in *predictInput, seed int64, window time.Duration, recs []*spanRec) reqLog {
	ctx := context.Background()
	horizon := predictWarmup + window
	var sched []time.Duration
	if w.OpenRate > 0 {
		sched = poissonSchedule(seed, w.OpenRate, horizon)
	}
	order := requestOrder(seed, 4096)
	var next atomic.Int64 // requests handed out so far, over all clients
	logs := make([]reqLog, w.Clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < w.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := client.New(e.gwURL, client.WithAPIKey(tenantKey))
			var rec *spanRec
			if recs != nil {
				rec = recs[c]
			}
			for {
				i := int(next.Add(1)) - 1
				var due, sent time.Duration
				if sched != nil {
					if i >= len(sched) {
						return
					}
					due = sched[i]
					time.Sleep(due - time.Since(start))
					sent = time.Since(start)
				} else {
					sent = time.Since(start)
					due = sent
					if sent >= horizon {
						return
					}
				}
				op := i
				if due < predictWarmup {
					op = -i - 1 // warm-up: negative op ids, left out of every median
				}
				err := doRequest(ctx, cl, in, order[i%len(order)], op, rec)
				done := time.Since(start)
				// The window holds the requests due in it. A closed loop also
				// drops the one answer per client that lands after the end;
				// an open loop keeps late answers, or a backlog would vanish.
				if due < predictWarmup || (sched == nil && done > horizon) {
					continue
				}
				latMs, lateMs := openTiming(due, sent, done)
				logs[c].add(latMs, (done - predictWarmup).Seconds(), lateMs, err)
			}
		}(c)
	}
	wg.Wait()
	var all reqLog
	for _, l := range logs {
		all.merge(l)
	}
	return all
}

// Segment sizing: the window is cut into at most maxSegments equal slices
// of at least minSegmentSamples answers each, so that every slice supports
// the tail percentile on its own.
const (
	maxSegments       = 8
	minSegmentSamples = 200
)

// segment cuts the window into equal time slices by completion time and
// returns, per slice, the answers per second and the pct-th percentile of
// latency. Reporting the median slice keeps one burst of interference from
// moving the run's tail.
func segment(latMs, doneS []float64, window time.Duration) (perS, tails []float64, pct float64) {
	k := len(latMs) / minSegmentSamples
	if k > maxSegments {
		k = maxSegments
	}
	if k < 1 {
		k = 1
	}
	pct = gatedTail(len(latMs) / k)
	slices := make([][]float64, k)
	width := window.Seconds() / float64(k)
	for i, d := range doneS {
		j := int(d / width)
		if j >= k {
			j = k - 1
		}
		slices[j] = append(slices[j], latMs[i])
	}
	for _, sl := range slices {
		perS = append(perS, float64(len(sl))/width)
		if len(sl) > 0 {
			tails = append(tails, quantile(sortedCopy(sl), pct/100))
		}
	}
	return perS, tails, pct
}

// probeLevel times calls of one entry point for about `budget`, one at a
// time, as root spans named `name`; the first tenth are warm-up.
func probeLevel(rec *spanRec, name string, budget time.Duration, call func(i, op int) error) error {
	start := time.Now()
	for n := 0; n < 10 || time.Since(start) < budget; n++ {
		op := n
		if time.Since(start) < budget/10 || n < 2 {
			op = -n - 1
		}
		id := rec.begin(name, op)
		err := call(n%predictInputs, op)
		rec.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// onionProbe issues the same volumes at successively deeper entry points,
// from one client, one request at a time. A layer's self time is the
// difference between the medians of two adjacent levels. One client makes
// batches of one, so the kernel is also timed at servedBatch, the batch
// size the workload's own requests were served in.
func onionProbe(e *predictEnv, in *predictInput, rec *spanRec, budget time.Duration, servedBatch int) error {
	ctx := context.Background()
	per := budget / 6
	checked := func(i int, got [3]float32) error {
		if !in.correct(i, got) {
			return fmt.Errorf("answer %v to volume %d differs from reference %v", got, i, in.want[i])
		}
		return nil
	}
	if err := probeLevel(rec, "probe.kernel", per, func(i, _ int) error {
		return checked(i, in.kernel(i, 1))
	}); err != nil {
		return err
	}
	if err := probeLevel(rec, "probe.kernel_served", per, func(i, _ int) error {
		return checked(i, in.kernel(i, servedBatch))
	}); err != nil {
		return err
	}
	if err := probeLevel(rec, "probe.model", per, func(i, _ int) error {
		p, err := e.model.Predict(in.voxels[i])
		if err != nil {
			return err
		}
		return checked(i, p.Normalized)
	}); err != nil {
		return err
	}
	direct := client.New(e.serveURL)
	if err := probeLevel(rec, "probe.serve", per, func(i, op int) error {
		return doRequest(ctx, direct, in, i, op, rec)
	}); err != nil {
		return err
	}
	via := client.New(e.gwURL, client.WithAPIKey(tenantKey))
	if err := probeLevel(rec, "probe.gateway", per, func(i, op int) error {
		return doRequest(ctx, via, in, i, op, rec)
	}); err != nil {
		return err
	}
	// The server's half of the wire: decoding the request frame.
	body, _, err := client.EncodePredictRequest(client.Binary, in.dims, in.voxels[0])
	if err != nil {
		return err
	}
	return probeLevel(rec, "wire.decode", per/10, func(int, int) error {
		_, err := wire.ReadTensor(bytes.NewReader(body), 0)
		return err
	})
}

// runPredict runs one predict workload: set-up (several times), the
// reference answers, then either the untraced timed window or the traced
// three parts (untraced base, the same loop with spans, the onion probe).
func runPredict(w workload, o runOpts) (*report, error) {
	rep := newReport(w, o)
	env, setupS, err := repeatSetup(func() (*predictEnv, error) { return setupPredict(w, o.Seed) }, (*predictEnv).close)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer env.close()
	in, err := newPredictInput(w, o.Seed)
	if err != nil {
		return nil, err
	}
	defer in.refPool.Close()

	if !o.Traced {
		window := time.Duration(o.Seconds * float64(time.Second))
		log := loadGen(w, env, in, o.Seed, window, nil)
		rep.addPredictTimed(w, log, window, setupS)
		return rep, nil
	}

	part := time.Duration(o.Seconds * tracedPart * float64(time.Second))
	gwClient := client.New(env.gwURL, client.WithAPIKey(tenantKey))
	ctx := context.Background()
	statsBefore, gwBefore, err := serveCounters(ctx, env, gwClient)
	if err != nil {
		return nil, err
	}
	memBefore := readMem()
	base := loadGen(w, env, in, o.Seed, part, nil)
	mem := readMem().since(memBefore)
	statsAfter, gwAfter, err := serveCounters(ctx, env, gwClient)
	if err != nil {
		return nil, err
	}

	t0 := time.Now()
	recs := make([]*spanRec, w.Clients)
	for i := range recs {
		recs[i] = newSpanRec(t0)
	}
	traced := loadGen(w, env, in, o.Seed, part, recs)
	requests, batches := statsAfter.Requests-statsBefore.Requests, statsAfter.Batches-statsBefore.Batches
	servedBatch := 1
	if batches > 0 {
		servedBatch = int(math.Round(float64(requests) / float64(batches)))
	}
	probe := newSpanRec(t0)
	if err := onionProbe(env, in, probe, part, servedBatch); err != nil {
		return nil, fmt.Errorf("onion probe: %w", err)
	}
	spans := mergeSpans(append(recs, probe)...)
	if err := writeSpans(filepath.Join(o.OutDir, "trace-"+w.Name+".json"), spans); err != nil {
		return nil, err
	}

	body, _, err := client.EncodePredictRequest(client.Binary, in.dims, in.voxels[0])
	if err != nil {
		return nil, err
	}
	respFrame, err := wire.FromFloat64(api.PredictTensorDims, make([]float64, 6))
	if err != nil {
		return nil, err
	}
	rep.addPredictTraced(predictTraced{
		base: base, traced: traced, spans: spans, mem: mem,
		requests: requests, batches: batches, servedBatch: servedBatch,
		shed:      gwAfter.shed - gwBefore.shed,
		retries:   gwAfter.retries - gwBefore.retries,
		wireBytes: len(body) + respFrame.EncodedSize(),
	})
	return rep, nil
}

type gwCounters struct{ shed, retries int64 }

// serveCounters reads the batcher's and the gateway's own counts through
// their public stats surfaces.
func serveCounters(ctx context.Context, e *predictEnv, gw *client.Client) (serve.Stats, gwCounters, error) {
	gs, err := gw.GatewayStats(ctx)
	if err != nil {
		return serve.Stats{}, gwCounters{}, fmt.Errorf("gateway stats: %w", err)
	}
	c := gwCounters{retries: gs.Gateway.Retries}
	if gs.Admission != nil {
		c.shed = gs.Admission.Shed
	}
	return e.model.Stats(), c, nil
}

// addPredictTimed turns the untraced window into the end-to-end metrics.
func (r *report) addPredictTimed(w workload, log reqLog, window time.Duration, setupS []float64) {
	r.Attempted, r.Failed = log.attempted, log.failed
	if log.firstErr != "" {
		r.Problems = append(r.Problems, "first failure: "+log.firstErr)
	}
	if len(log.latMs) == 0 {
		r.Problems = append(r.Problems, "no correct answer in the window")
		return
	}
	loop := fmt.Sprintf("closed loop, %d clients", w.Clients)
	if w.OpenRate > 0 {
		loop = fmt.Sprintf("open loop, %g/s over %d connections, timed from due time", w.OpenRate, w.Clients)
	}
	perS, tails, pct := segment(log.latMs, log.doneS, window)
	// Up to the last answer: an open loop's backlog drains after the window
	// ends, and the time that takes counts against it.
	elapsed := math.Max(window.Seconds(), slices.Max(log.doneS))
	r.set("throughput_per_s", float64(len(log.latMs))/elapsed, summarize(perS),
		fmt.Sprintf("correct answers ÷ time to the last one; %s; quartiles over %d slices of the window", loop, len(perS)))
	lat := sortedCopy(log.latMs)
	s := summarize(lat)
	r.set("latency_p50_ms", s.Median, s, "")
	r.set("latency_tail_ms", median(tails), summarize(tails), fmt.Sprintf("median over %d slices of each slice's p%g", len(tails), pct))
	r.set("setup_s", median(setupS), summarize(setupS), "")
	r.set("peak_rss_mb", peakRSSMB(), summary{}, "VmHWM")
	if tailPercentile(len(lat)) >= 99 {
		r.extra("latency_p99_ms", "ms", quantile(lat, 0.99), "ungated")
	}
	if w.OpenRate > 0 {
		r.extra("gen_late_ms_p95", "ms", quantile(sortedCopy(log.lateMs), 0.95), "how late the generator sent")
	}
}

// predictTraced is what a traced predict run collected.
type predictTraced struct {
	base, traced      reqLog
	spans             []span
	mem               memStats
	requests, batches int64
	servedBatch       int // requests ÷ batches, rounded: the batch the kernel is timed at
	shed, retries     int64
	wireBytes         int
}

// addPredictTraced turns the onion probe into the per-layer metrics, each
// with its share of the untraced p50.
func (r *report) addPredictTraced(t predictTraced) {
	r.Attempted = t.base.attempted + t.traced.attempted
	r.Failed = t.base.failed + t.traced.failed
	for _, l := range []reqLog{t.base, t.traced} {
		if l.firstErr != "" {
			r.Problems = append(r.Problems, "first failure: "+l.firstErr)
		}
	}
	if len(t.base.latMs) == 0 || len(t.traced.latMs) == 0 {
		r.Problems = append(r.Problems, "traced run measured no requests")
		return
	}
	p50 := median(t.base.latMs)
	r.set("predict.p50_ms", p50, summarize(t.base.latMs), "untraced request p50: the base of every share below")

	level := func(name string) summary { return summarize(eachMs(t.spans, name)) }
	kernel1, kernel := level("probe.kernel"), level("probe.kernel_served")
	model, direct, via := level("probe.model"), level("probe.serve"), level("probe.gateway")
	layer := func(name string, v float64, s summary, note string) {
		r.set(name, v, s, note).Share = v / p50
	}
	layer("nn.inferbatch_ms", kernel.Median, kernel, fmt.Sprintf("Network.InferBatch at the served batch size, %d", t.servedBatch))
	r.extra("nn.inferbatch_b1_ms", "ms", kernel1.Median, "batch of one: the kernel inside every one-client level below")
	layer("serve.batcher_wait_ms", model.Median-kernel1.Median, summary{}, "one client: Model.Predict − batch-of-one kernel")
	if t.batches > 0 {
		r.set("serve.avg_batch", float64(t.requests)/float64(t.batches), summary{}, "requests ÷ batches over the untraced window")
	}
	enc := level("wire.encode")
	layer("wire.encode_ms", enc.Median, enc, "client side, inside serve.http_self_ms")
	dec := level("wire.decode")
	layer("wire.decode_ms", dec.Median, dec, "server side, inside serve.http_self_ms")
	r.set("wire.bytes_per_req", float64(t.wireBytes), summary{}, "computed: request frame + response frame")
	layer("serve.http_self_ms", direct.Median-model.Median, summary{}, "one client: client→serve HTTP − Model.Predict")
	layer("gateway.self_ms", via.Median-direct.Median, summary{}, "one client: via gateway − direct")
	r.set("gateway.shed", float64(t.shed), summary{}, "over the untraced window")
	r.set("gateway.retries", float64(t.retries), summary{}, "over the untraced window")
	explained := via.Median - kernel1.Median + kernel.Median
	layer("predict.unattributed_ms", p50-explained, summary{}, "workload p50 − (one-client gateway level with the served-batch kernel): what concurrency adds")
	if late := t.base.lateMs; len(late) > 0 {
		r.set("gen_late_ms_p95", quantile(sortedCopy(late), 0.95), summary{}, "how late the generator sent (0 in a closed loop)")
	}
	ops := float64(t.base.attempted)
	r.set("go.alloc_bytes_per_op", float64(t.mem.alloc)/ops, summary{}, "per request, whole process, untraced window")
	r.set("go.gc_pause_ms", float64(t.mem.pauseNs)/1e6, summary{}, "total over the untraced window")
	r.set("trace.overhead_share", (median(t.traced.latMs)-p50)/p50, summary{}, "request p50 with client spans vs without")
}
