package main

import "time"

// benchProcs is the GOMAXPROCS every run is pinned to: the reference box has
// two cores, and the load generators never use more goroutines or
// connections than that, so clients and servers share them the same way on
// every run.
const benchProcs = 2

// metricDef names one reported metric. The names, units and directions here
// are the ones BENCHMARK.json lists; spec_test.go keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the gated metrics, measured with all tracing off. Every
// workload reports every one of them: an operation is one optimizer step's
// worth of samples on train.* and one predict request on predict.*.
var endToEnd = []metricDef{
	{"throughput_per_s", "1/s", "higher", 0.15},
	{"latency_p50_ms", "ms", "lower", 0.18},
	{"latency_tail_ms", "ms", "lower", 0.22},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// perLayer are the ungated metrics of the separate traced run. A metric
// that has no meaning on a workload reads 0 there (comm.* on train.1rank,
// every predict layer on train.*).
var perLayer = []metricDef{
	// training shadow step
	{Name: "train.step_ms", Unit: "ms", Better: "lower"},
	{Name: "data.next_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.forward_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.backward_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.conv_fwd_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.conv_bwd_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.conv_fwd_gflops", Unit: "gflop/s", Better: "higher"},
	{Name: "nn.flatten_ms", Unit: "ms", Better: "lower"},
	{Name: "comm.allreduce_ms", Unit: "ms", Better: "lower"},
	{Name: "comm.bytes_per_step", Unit: "B", Better: "lower"},
	{Name: "comm.msgs_per_step", Unit: "count", Better: "lower"},
	{Name: "optim.step_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.invalidate_ms", Unit: "ms", Better: "lower"},
	{Name: "train.unattributed_ms", Unit: "ms", Better: "lower"},
	// predict onion probe
	{Name: "predict.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.inferbatch_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.batcher_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.avg_batch", Unit: "count", Better: "higher"},
	{Name: "wire.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "wire.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "wire.bytes_per_req", Unit: "B", Better: "lower"},
	{Name: "serve.http_self_ms", Unit: "ms", Better: "lower"},
	{Name: "gateway.self_ms", Unit: "ms", Better: "lower"},
	{Name: "gateway.shed", Unit: "count", Better: "lower"},
	{Name: "gateway.retries", Unit: "count", Better: "lower"},
	{Name: "predict.unattributed_ms", Unit: "ms", Better: "lower"},
	{Name: "gen_late_ms_p95", Unit: "ms", Better: "lower"},
	// process-wide
	{Name: "go.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "go.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
}

// workload is one named set of inputs. The sizes are constants of the
// benchmark, not options: changing one changes what every earlier result
// meant.
type workload struct {
	Name string
	Why  string

	Dim, Base int // network input edge and first-conv channels

	// train.*
	Ranks, Workers   int  // world size and compute workers per rank
	TCP              bool // ranks joined by dist over loopback, fed by data.Loader
	Shards, PerShard int  // training set: Shards files of PerShard samples
	Epochs           int  // timed epochs per round, after one warm-up epoch

	// predict.*
	Predict  bool
	Clients  int     // closed-loop clients, or open-loop connections
	OpenRate float64 // >0: open loop, Poisson arrivals per second
}

func (w workload) trainSamples() int { return w.Shards * w.PerShard }

var workloads = []workload{
	{
		Name: "train.1rank",
		Why:  "plain single-worker baseline: conv forward/backward are about 3/4 of the step and comm does nothing",
		Dim:  32, Base: 8, Ranks: 1, Workers: 2, Shards: 1, PerShard: 8, Epochs: 4,
	},
	{
		Name: "train.2rank-tcp",
		Why:  "full distributed path: 19 MB of gradients per step make optimizer, allreduce and framing the majority, conv the minority",
		Dim:  16, Base: 16, Ranks: 2, Workers: 1, TCP: true, Shards: 4, PerShard: 2, Epochs: 4,
	},
	{
		Name: "predict.small",
		Why:  "closed loop, tiny kernel: batcher wait, HTTP, wire and gateway are the latency, not the network",
		Dim:  8, Base: 4, Predict: true, Clients: 2,
	},
	{
		Name: "predict.large",
		Why:  "closed loop, kernel-bound: the inference twin of train.1rank, where a front-door change must show no movement",
		Dim:  16, Base: 16, Predict: true, Clients: 2,
	},
	{
		Name: "predict.open",
		Why:  "open loop, seeded Poisson arrivals at 250/s timed from due time: scheduled-arrival tail through the same batcher and admission queue",
		Dim:  8, Base: 4, Predict: true, Clients: 2, OpenRate: 250,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Run constants shared by all workloads.
const (
	setupRepeats  = 9                      // set-ups per run; setup_s is their median
	predictInputs = 16                     // distinct volumes a predict workload cycles through
	predictWarmup = 200 * time.Millisecond // closed/open loop run-in before the timed window
	answerTol     = 1e-5                   // max |normalized − reference| of a correct answer
	tenantKey     = "bench-tenant"         // the one API key the gateway admits
	tracedPart    = 0.3                    // share of -seconds a traced run gives each of its three parts
)
