// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, plus ablations for the design choices DESIGN.md calls
// out. EXPERIMENTS.md records paper-versus-measured for each.
//
// Default problem sizes are scaled down so `go test -bench=.` completes in
// minutes; set COSMOFLOW_FULL=1 to run Table I at the paper's full 128³
// size (minutes per operator on a laptop).
package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/cosmo"
	"repro/internal/hpcsim"
	"repro/internal/iopipe"
	"repro/internal/nn"
	"repro/internal/obsv"
	"repro/internal/optim"
	"repro/internal/parallel"
	"repro/internal/serve"
	"repro/internal/serve/api"
	"repro/internal/serve/client"
	"repro/internal/serve/wire"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/tfrecord"
	"repro/internal/train"
)

// tableIDim returns the Table-I input size: 32³ scaled (default) or the
// paper's 128³ with COSMOFLOW_FULL=1.
func tableIDim() int {
	if os.Getenv("COSMOFLOW_FULL") != "" {
		return 128
	}
	return 32
}

// BenchmarkTableI_ConvLayers times each convolution layer's forward and
// backward operators separately, reporting Gflop/s — the Table-I report.
// The paper's relative shape should hold: conv2 dominates, the deep small
// layers are cheap, and backward costs roughly twice forward.
func BenchmarkTableI_ConvLayers(b *testing.B) {
	dim := tableIDim()
	pool := parallel.NewPool(0)
	defer pool.Close()
	net, err := nn.BuildCosmoFlow(nn.TopologyConfig{
		InputDim: dim, BaseChannels: 16, Seed: 1, Pool: pool,
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	shape := net.InputShape()
	for _, layer := range net.Layers {
		outShape := layer.OutputShape(shape)
		conv, ok := layer.(*nn.Conv3D)
		if !ok {
			shape = outShape
			continue
		}
		x := tensor.New(shape...)
		x.RandNormal(rng, 0, 1)
		dy := tensor.New(outShape...)
		dy.RandNormal(rng, 0, 1)
		inShape := shape.Clone()

		b.Run(conv.Name()+"/fwd", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				conv.Forward(x)
			}
			b.ReportMetric(float64(conv.FwdFLOPs(inShape))/1e9/b.Elapsed().Seconds()*float64(b.N), "Gflop/s")
		})
		b.Run(conv.Name()+"/bwd", func(b *testing.B) {
			conv.Forward(x) // ensure cached input
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				conv.Backward(dy)
			}
			b.ReportMetric(float64(conv.BwdFLOPs(inShape))/1e9/b.Elapsed().Seconds()*float64(b.N), "Gflop/s")
		})
		shape = outShape
	}
}

// BenchmarkFig2_TopologyFLOPs reports the paper-size network's parameter
// count, weight bytes, and per-sample FLOPs — the §V-A budgets (paper:
// ~7.07M parameters, 28.15 MB, 69.33 Gflop).
func BenchmarkFig2_TopologyFLOPs(b *testing.B) {
	var params, bytes int
	var fwd, bwd int64
	for i := 0; i < b.N; i++ {
		net, err := nn.BuildCosmoFlow(nn.PaperTopology())
		if err != nil {
			b.Fatal(err)
		}
		params = net.ParamCount()
		bytes = net.ParamBytes()
		fwd, bwd = net.TotalFLOPs()
	}
	b.ReportMetric(float64(params)/1e6, "Mparams")
	b.ReportMetric(float64(bytes)/1e6, "MB-weights")
	b.ReportMetric(float64(fwd+bwd)/1e9, "Gflop/sample")
}

// BenchmarkFig3_TimeBreakdown runs traced training steps and reports rank
// 0's share of recorded time per step phase, from its timeline's phase
// spans — the Figure-3 stages as the trainer's one clock sees them. The
// paper's conv vs non-conv split is per layer, so it lives in benchmark/'s
// traced nn.conv_fwd_ms and nn.conv_bwd_ms rows.
func BenchmarkFig3_TimeBreakdown(b *testing.B) {
	samples := benchSamples(16, 16, 31)
	var stats []obsv.SpanStat
	for i := 0; i < b.N; i++ {
		tl := obsv.NewTimeline(0, 0)
		_, err := train.Run(train.Config{
			Ranks: 1, Epochs: 1,
			Topology: nn.TopologyConfig{InputDim: 16, BaseChannels: 4, Seed: 1},
			Optim:    optim.Config{},
			Timeline: tl,
			Seed:     3,
		}, samples, nil)
		if err != nil {
			b.Fatal(err)
		}
		stats = tl.Phases().Snapshot()
	}
	var total float64
	for _, st := range stats {
		total += st.TotalMs
	}
	labels := map[string]string{
		"forward":   "%forward",
		"backward":  "%backward",
		"allreduce": "%comms",
		"optimizer": "%optim",
		"data_wait": "%io",
	}
	for _, st := range stats {
		if label, ok := labels[st.Name]; ok {
			b.ReportMetric(100*st.TotalMs/total, label)
		}
	}
}

// BenchmarkFig4_ScalingCori regenerates the Cori curves of Figure 4 from
// the calibrated model and reports the headline efficiencies.
func BenchmarkFig4_ScalingCori(b *testing.B) {
	var effBB8192, effL1024, pflops float64
	for i := 0; i < b.N; i++ {
		bb := hpcsim.Simulate(hpcsim.Cori(), hpcsim.CoriDataWarp(), 8192, 8192*20)
		lu := hpcsim.Simulate(hpcsim.Cori(), hpcsim.CoriLustre(), 1024, 1024*20)
		effBB8192 = bb.Efficiency
		effL1024 = lu.Efficiency
		pflops = bb.AggregateFlops / 1e15
	}
	b.ReportMetric(100*effBB8192, "%eff-BB-8192(paper:77)")
	b.ReportMetric(100*effL1024, "%eff-Lustre-1024(paper:<58)")
	b.ReportMetric(pflops, "Pflop/s(paper:3.5)")
}

// BenchmarkFig4_ScalingPizDaint reports the Piz Daint Lustre efficiency at
// 512 nodes (paper: 44%).
func BenchmarkFig4_ScalingPizDaint(b *testing.B) {
	var eff float64
	for i := 0; i < b.N; i++ {
		eff = hpcsim.Simulate(hpcsim.PizDaint(), hpcsim.PizDaintLustre(), 512, 512*20).Efficiency
	}
	b.ReportMetric(100*eff, "%eff-512(paper:44)")
}

// BenchmarkFig4_CommBandwidth measures the real in-process ring allreduce
// on a gradient-sized buffer across 4 ranks and reports per-rank
// throughput — the quantity the paper estimates at 1.7 GB/s/node (§VI-B).
func BenchmarkFig4_CommBandwidth(b *testing.B) {
	const n = 4
	const elems = 1 << 20 // 4 MB
	w, err := comm.NewWorld(n, comm.WithHelpers(4))
	if err != nil {
		b.Fatal(err)
	}
	bufs := make([][]float32, n)
	for r := range bufs {
		bufs[r] = make([]float32, elems)
	}
	b.SetBytes(4 * elems)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for _, c := range w.Comms() {
			wg.Add(1)
			go func(c *comm.Comm) {
				defer wg.Done()
				c.AllReduceSum(bufs[c.Rank()])
			}(c)
		}
		wg.Wait()
	}
}

// BenchmarkFig5_ConvergenceVsScale trains the same data at two rank counts
// and reports final losses: larger global batches (more ranks) converge
// more slowly per epoch, the Figure-5 effect.
func BenchmarkFig5_ConvergenceVsScale(b *testing.B) {
	samples := benchSamples(32, 8, 41)
	for _, ranks := range []int{1, 8} {
		b.Run(map[int]string{1: "ranks1", 8: "ranks8"}[ranks], func(b *testing.B) {
			var loss float64
			for i := 0; i < b.N; i++ {
				res, err := train.Run(train.Config{
					Ranks: ranks, Epochs: 3,
					Topology: nn.TopologyConfig{InputDim: 8, BaseChannels: 2, Seed: 1},
					Optim:    optim.Config{},
					Seed:     5,
				}, samples, nil)
				if err != nil {
					b.Fatal(err)
				}
				loss = res.FinalTrainLoss()
			}
			b.ReportMetric(loss, "final-loss")
		})
	}
}

// BenchmarkFig6_ParameterEstimation runs the end-to-end physics pipeline —
// simulate, train, estimate — and reports per-parameter relative errors
// (§VII-A; paper: 0.0022/0.0094/0.0096 converged at full scale).
func BenchmarkFig6_ParameterEstimation(b *testing.B) {
	ds, err := core.GenerateDataset(core.DatasetConfig{
		Sims: 12, ValSims: 1, TestSims: 1, NGrid: 32, Seed: 6,
	})
	if err != nil {
		b.Fatal(err)
	}
	var re [3]float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.TrainModel(core.TrainConfig{Ranks: 2, Epochs: 4, BaseChannels: 2, Seed: 7}, ds)
		if err != nil {
			b.Fatal(err)
		}
		re = train.RelativeErrors(train.Evaluate(res.Net, ds.Test, ds.Config.Priors))
	}
	b.ReportMetric(re[0], "relerr-OmegaM")
	b.ReportMetric(re[1], "relerr-sigma8")
	b.ReportMetric(re[2], "relerr-ns")
}

// BenchmarkEq1_IOBandwidth streams a TFRecord epoch through the throttled
// pipeline and reports achieved read bandwidth — the §VI-A measurement
// behind Equation 1.
func BenchmarkEq1_IOBandwidth(b *testing.B) {
	dir := b.TempDir()
	samples := benchSamples(64, 16, 51)
	paths, err := tfrecord.WriteDataset(dir, "bench", samples, 16)
	if err != nil {
		b.Fatal(err)
	}
	var fileBytes int64
	for _, p := range paths {
		if fi, err := os.Stat(p); err == nil {
			fileBytes += fi.Size()
		}
	}
	pipe, err := iopipe.NewPipeline(paths, iopipe.Config{
		Readers: 6, ShuffleBuffer: 16,
		Throttle: iopipe.NewThrottle(64 << 20), // 64 MiB/s, ~BWmin scale
		Seed:     1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(fileBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc, ec := pipe.Epoch(i)
		for range sc {
		}
		if err := <-ec; err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSingleNodeThroughput measures real single-rank training
// throughput and sustained Gflop/s — the §V-B analogue (paper: 535 Gflop/s
// on KNL with MKL-DNN; pure Go lands far lower, the *shape* of the profile
// is what carries over).
func BenchmarkSingleNodeThroughput(b *testing.B) {
	samples := benchSamples(16, 16, 61)
	var flops, sps float64
	for i := 0; i < b.N; i++ {
		res, err := train.Run(train.Config{
			Ranks: 1, Epochs: 2,
			Topology: nn.TopologyConfig{InputDim: 16, BaseChannels: 8, Seed: 1},
			Optim:    optim.Config{},
			Seed:     8,
		}, samples, nil)
		if err != nil {
			b.Fatal(err)
		}
		flops = train.SustainedFlops(res)
		sps = res.Epochs[len(res.Epochs)-1].SamplesSec
	}
	b.ReportMetric(flops/1e9, "Gflop/s")
	b.ReportMetric(sps, "samples/s")
}

// BenchmarkBaseline_PowerSpectrumRegression fits and scores the traditional
// statistics baseline (§II-A).
func BenchmarkBaseline_PowerSpectrumRegression(b *testing.B) {
	ds, err := core.GenerateDataset(core.DatasetConfig{
		Sims: 10, ValSims: 1, TestSims: 1, NGrid: 32, Seed: 9,
	})
	if err != nil {
		b.Fatal(err)
	}
	var mse float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model, err := stats.FitRidge(ds.Train, 4, 1e-4)
		if err != nil {
			b.Fatal(err)
		}
		mse, err = model.MSE(ds.Test)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(mse, "test-mse")
}

// BenchmarkAblation_BlockedVsDirectConv compares the Algorithm-1 blocked
// kernel against the generic direct convolution at a paper-style layer
// shape (the §III-C optimization).
func BenchmarkAblation_BlockedVsDirectConv(b *testing.B) {
	pool := parallel.NewPool(0)
	defer pool.Close()
	rng := rand.New(rand.NewSource(71))
	x := tensor.New(32, 16, 16, 16)
	x.RandNormal(rng, 0, 1)
	for _, mode := range []string{"blocked", "direct"} {
		b.Run(mode, func(b *testing.B) {
			conv := nn.NewConv3D("c", 32, 32, 3, 1, 1, pool, rand.New(rand.NewSource(1)))
			if mode == "direct" {
				conv.ForceDirect(true)
			}
			inShape := x.Shape()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				conv.Forward(x)
			}
			b.ReportMetric(float64(conv.FwdFLOPs(inShape))/1e9/b.Elapsed().Seconds()*float64(b.N), "Gflop/s")
		})
	}
}

// BenchmarkAblation_AllreduceAlgorithms compares the scalable collectives
// against the centralized parameter-server baseline (§II-C).
func BenchmarkAblation_AllreduceAlgorithms(b *testing.B) {
	const ranks = 8
	const elems = 1 << 18 // 1 MB
	for _, algo := range []comm.Algorithm{comm.Ring, comm.RecursiveDoubling, comm.Central} {
		b.Run(algo.String(), func(b *testing.B) {
			w, err := comm.NewWorld(ranks, comm.WithAlgorithm(algo))
			if err != nil {
				b.Fatal(err)
			}
			bufs := make([][]float32, ranks)
			for r := range bufs {
				bufs[r] = make([]float32, elems)
			}
			b.SetBytes(4 * elems)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for _, c := range w.Comms() {
					wg.Add(1)
					go func(c *comm.Comm) {
						defer wg.Done()
						c.AllReduceSum(bufs[c.Rank()])
					}(c)
				}
				wg.Wait()
			}
		})
	}
}

// BenchmarkAblation_LARC compares convergence with and without LARC at a
// large-ish global batch — the stabilization the paper relies on (§III-B).
func BenchmarkAblation_LARC(b *testing.B) {
	samples := benchSamples(32, 8, 81)
	for _, disable := range []bool{false, true} {
		name := "larc"
		if disable {
			name = "plain-adam"
		}
		b.Run(name, func(b *testing.B) {
			var loss float64
			for i := 0; i < b.N; i++ {
				res, err := train.Run(train.Config{
					Ranks: 8, Epochs: 3,
					Topology: nn.TopologyConfig{InputDim: 8, BaseChannels: 2, Seed: 1},
					Optim:    optim.Config{DisableLARC: disable},
					Seed:     9,
				}, samples, nil)
				if err != nil {
					b.Fatal(err)
				}
				loss = res.FinalTrainLoss()
			}
			b.ReportMetric(loss, "final-loss")
		})
	}
}

// BenchmarkServing_ReplicaPool measures the inference-serving subsystem:
// concurrent closed-loop clients issuing predictions through the
// micro-batcher into replica pools of different sizes. Throughput should
// scale with the replica count until the cores are covered — the
// worker-parameterized serving scenario behind cosmoflow-serve.
func BenchmarkServing_ReplicaPool(b *testing.B) {
	const dim = 16
	samples := benchSamples(32, dim, 101)
	for _, replicas := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("replicas%d", replicas), func(b *testing.B) {
			reg := serve.NewRegistry()
			defer reg.Close()
			m, err := reg.Load(serve.ModelConfig{
				Topology: nn.TopologyConfig{InputDim: dim, BaseChannels: 4, Seed: 1},
				Replicas: replicas,
				MaxBatch: 8,
				MaxDelay: time.Millisecond,
			})
			if err != nil {
				b.Fatal(err)
			}
			var next atomic.Int64
			b.SetParallelism(2) // 2×GOMAXPROCS closed-loop clients
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := int(next.Add(1)) % len(samples)
					if _, err := m.Predict(samples[i].Voxels); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			st := m.Stats()
			if st.Batches > 0 {
				b.ReportMetric(st.AvgBatch, "avg-batch")
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
		})
	}
}

// BenchmarkInferBatch_Scaling measures the batched inference hot path: a
// micro-batch of B volumes runs as one nn.InferBatch forward (one
// (batch × task) parallel-for per layer, activations recycled through the
// network's buffer pool). Samples/sec should rise with B: B=1 is the
// sequential per-sample path, larger batches amortize per-layer overhead
// and allocation, and on multi-core hosts also widen every parallel-for's
// index space.
func BenchmarkInferBatch_Scaling(b *testing.B) {
	pool := parallel.NewPool(0)
	defer pool.Close()
	net, err := nn.BuildCosmoFlow(nn.TopologyConfig{
		InputDim: 16, BaseChannels: 16, Seed: 1, Pool: pool,
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for _, batch := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("B%d", batch), func(b *testing.B) {
			xs := make([]*tensor.Tensor, batch)
			for i := range xs {
				xs[i] = tensor.New(net.InputShape()...)
				xs[i].RandNormal(rng, 0, 1)
			}
			net.InferBatch(xs) // warm packed weights and the buffer pool
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.InferBatch(xs)
			}
			b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
		})
	}
}

// BenchmarkInferBatch_TraceOverhead prices the obsv forward trace against
// the untraced batched path (same network and batch as the B=4 scaling
// point). The "off" case is the acceptance criterion: with no trace
// attached the instrumented code must cost <2% versus the seed — it pays
// one nil check per forward, never a clock read. "on" shows the opt-in
// price of per-layer timing (two clock reads per layer plus atomic span
// updates), which /v1/trace buyers accept knowingly.
func BenchmarkInferBatch_TraceOverhead(b *testing.B) {
	const batch = 4
	pool := parallel.NewPool(0)
	defer pool.Close()
	net, err := nn.BuildCosmoFlow(nn.TopologyConfig{
		InputDim: 16, BaseChannels: 16, Seed: 1, Pool: pool,
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	xs := make([]*tensor.Tensor, batch)
	for i := range xs {
		xs[i] = tensor.New(net.InputShape()...)
		xs[i].RandNormal(rng, 0, 1)
	}
	net.InferBatch(xs) // warm packed weights and the buffer pool

	for _, mode := range []string{"off", "on"} {
		b.Run(mode, func(b *testing.B) {
			if mode == "on" {
				net.SetTrace(obsv.NewForwardTrace(net.LayerNames()))
			} else {
				net.SetTrace(nil)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.InferBatch(xs)
			}
			b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
		})
	}
	net.SetTrace(nil)
}

// BenchmarkInferBatch_VsSequentialLoop pits one InferBatch forward of B=4
// volumes against the pre-batching serving path (a tight loop of 4
// single-sample Predictor calls), the ablation behind the batched runBatch.
func BenchmarkInferBatch_VsSequentialLoop(b *testing.B) {
	const batch = 4
	const dim = 16
	pool := parallel.NewPool(0)
	defer pool.Close()
	net, err := nn.BuildCosmoFlow(nn.TopologyConfig{
		InputDim: dim, BaseChannels: 16, Seed: 1, Pool: pool,
	})
	if err != nil {
		b.Fatal(err)
	}
	samples := benchSamples(batch, dim, 121)
	voxels := make([][]float32, batch)
	for i, s := range samples {
		voxels[i] = s.Voxels
	}
	b.Run("sequential-loop", func(b *testing.B) {
		p := train.NewPredictor(net)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, s := range samples {
				p.Predict(s)
			}
		}
		b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
	})
	b.Run("infer-batch", func(b *testing.B) {
		p := train.NewBatchPredictor(net)
		p.PredictVoxels(voxels, samples[0].NumChannels(), dim) // warm buffers
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.PredictVoxels(voxels, samples[0].NumChannels(), dim)
		}
		b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
	})
}

// BenchmarkWire_EncodeDecode pits the v1 API's two predict-body encodings
// against each other on a paper-relevant 64³ volume: JSON (every voxel a
// decimal string) versus the binary tensor frame (4 bytes per voxel,
// straight little-endian). This is the per-request wire cost a serving
// client and server pay before any inference happens — the motivation for
// application/x-cosmoflow-tensor.
func BenchmarkWire_EncodeDecode(b *testing.B) {
	const dim = 64
	rng := rand.New(rand.NewSource(131))
	voxels := make([]float32, dim*dim*dim)
	for i := range voxels {
		voxels[i] = rng.Float32()
	}
	dims := []int{1, dim, dim, dim}

	jsonBody, _, err := client.EncodePredictRequest(client.JSON, dims, voxels)
	if err != nil {
		b.Fatal(err)
	}
	binBody, _, err := client.EncodePredictRequest(client.Binary, dims, voxels)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("encoded sizes: json %d bytes, binary %d bytes (%.1fx)",
		len(jsonBody), len(binBody), float64(len(jsonBody))/float64(len(binBody)))

	b.Run("json-encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(jsonBody)))
		for i := 0; i < b.N; i++ {
			if _, _, err := client.EncodePredictRequest(client.JSON, dims, voxels); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json-decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(jsonBody)))
		for i := 0; i < b.N; i++ {
			var req api.PredictRequest
			if err := json.Unmarshal(jsonBody, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("binary-encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(binBody)))
		for i := 0; i < b.N; i++ {
			if _, _, err := client.EncodePredictRequest(client.Binary, dims, voxels); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("binary-decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(binBody)))
		for i := 0; i < b.N; i++ {
			if _, err := wire.ReadTensor(bytes.NewReader(binBody), 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServing_PredictorAlloc measures the per-request allocation of
// the serving hot path's reusable predictor against the one-shot
// train.Predict.
func BenchmarkServing_PredictorAlloc(b *testing.B) {
	net, err := nn.BuildCosmoFlow(nn.TopologyConfig{InputDim: 16, BaseChannels: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	s := benchSamples(1, 16, 111)[0]
	b.Run("one-shot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			train.Predict(net, s)
		}
	})
	b.Run("predictor", func(b *testing.B) {
		p := train.NewPredictor(net)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Predict(s)
		}
	})
}

// BenchmarkCosmoSimulation times one full synthetic simulation (IC +
// Zel'dovich + deposit + split) at laptop scale.
func BenchmarkCosmoSimulation(b *testing.B) {
	cfg := cosmo.SimConfig{NGrid: 32, BoxSize: 64, Priors: cosmo.DefaultPriors()}
	p := cosmo.Planck2015()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Simulate(p, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSamples builds deterministic synthetic training samples.
func benchSamples(n, dim int, seed int64) []*cosmo.Sample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*cosmo.Sample, n)
	for i := range out {
		target := [3]float32{rng.Float32(), rng.Float32(), rng.Float32()}
		out[i] = cosmo.SyntheticSample(dim, target, rng.Int63())
	}
	return out
}

// BenchmarkAblation_OverlapComm compares the blocking flatten-allreduce
// step against the §III-D overlapped pipeline at 4 ranks.
func BenchmarkAblation_OverlapComm(b *testing.B) {
	samples := benchSamples(16, 16, 91)
	for _, overlap := range []bool{false, true} {
		name := "blocking"
		if overlap {
			name = "overlapped"
		}
		b.Run(name, func(b *testing.B) {
			var sps float64
			for i := 0; i < b.N; i++ {
				res, err := train.Run(train.Config{
					Ranks: 4, Epochs: 2,
					Topology:    nn.TopologyConfig{InputDim: 16, BaseChannels: 4, Seed: 1},
					Optim:       optim.Config{},
					Helpers:     4,
					OverlapComm: overlap,
					Seed:        10,
				}, samples, nil)
				if err != nil {
					b.Fatal(err)
				}
				sps = res.Epochs[len(res.Epochs)-1].SamplesSec
			}
			b.ReportMetric(sps, "samples/s")
		})
	}
}

// BenchmarkAblation_ZAvs2LPT compares the two N-body-lite evolution orders
// (the substrate-fidelity knob; COLA is built on 2LPT).
func BenchmarkAblation_ZAvs2LPT(b *testing.B) {
	p := cosmo.Planck2015()
	for _, lpt := range []bool{false, true} {
		name := "zeldovich"
		if lpt {
			name = "2lpt"
		}
		b.Run(name, func(b *testing.B) {
			cfg := cosmo.SimConfig{NGrid: 32, BoxSize: 64, Priors: cosmo.DefaultPriors(), Use2LPT: lpt}
			for i := 0; i < b.N; i++ {
				if _, err := cfg.Simulate(p, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
