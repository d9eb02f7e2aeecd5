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
	"io"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	_ "unsafe" // go:linkname

	"repro/internal/comm"
	"repro/internal/cosmo"
	"repro/internal/cpufeat"
	"repro/internal/data"
	"repro/internal/hpcsim"
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

// BenchmarkFig3_TimeBreakdown runs traced training and reports rank 0's
// share of recorded time per step phase, from its timeline's events — the
// Figure-3 stages as the trainer's one clock sees them. Each run is three
// 16-step epochs, and the shares count the last two only, so the first
// epoch's cold caches and first-touch allocations stay out. The paper's
// conv vs non-conv split is per layer, so it lives in benchmark/'s traced
// nn.conv_fwd_ms and nn.conv_bwd_ms rows.
func BenchmarkFig3_TimeBreakdown(b *testing.B) {
	const epochs, perEpoch = 3, 16
	samples := benchSamples(perEpoch, 16, 31)
	var byPhase [obsv.NumPhases]int64
	for i := 0; i < b.N; i++ {
		tl := obsv.NewTimeline(0, 0)
		_, err := train.Run(train.Config{
			Ranks: 1, Epochs: epochs,
			Topology: nn.TopologyConfig{InputDim: 16, BaseChannels: 4, Seed: 1},
			Optim:    optim.Config{},
			Timeline: tl,
			Seed:     3,
		}, samples, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, ev := range tl.Snapshot().Events {
			if ev.Step >= perEpoch {
				byPhase[ev.Phase] += ev.DurNs
			}
		}
	}
	var total int64
	for _, ns := range byPhase {
		total += ns
	}
	labels := map[obsv.Phase]string{
		obsv.PhaseForward:   "%forward",
		obsv.PhaseBackward:  "%backward",
		obsv.PhaseAllReduce: "%comms",
		obsv.PhaseOptimizer: "%optim",
		obsv.PhaseDataWait:  "%io",
	}
	for p, label := range labels {
		b.ReportMetric(100*float64(byPhase[p])/float64(total), label)
	}
}

// BenchmarkTrainStep times train.1rank's step (dim 32, base 8, one rank)
// at 1 and 2 workers per rank in interleaved slices. A slice runs
// train.Run once per worker count, alternating which goes first, over two
// samples for two epochs, and times the second epoch's steps, so build and
// first-touch costs stay out. It reports the median step of each side and
// the median over slices of the 1-worker step over the 2-worker step: the
// step's scaling from a second worker, robust to a slice that another
// process slowed.
func BenchmarkTrainStep(b *testing.B) {
	const steps = 2
	samples := benchSamples(steps, 32, 101)
	var ms [3][]float64 // by worker count
	var ratios []float64
	for i := 0; i < b.N; i++ {
		order := []int{1, 2}
		if i%2 == 1 {
			order = []int{2, 1}
		}
		for _, workers := range order {
			res, err := train.Run(train.Config{
				Ranks: 1, Epochs: 2, WorkersPerRank: workers,
				Topology: nn.TopologyConfig{InputDim: 32, BaseChannels: 8, Seed: 1},
				Seed:     5,
			}, samples, nil)
			if err != nil {
				b.Fatal(err)
			}
			ms[workers] = append(ms[workers], res.Epochs[1].Duration.Seconds()*1e3/steps)
		}
		ratios = append(ratios, ms[1][i]/ms[2][i])
	}
	b.ReportMetric(median(ms[1]), "ms/step-1w")
	b.ReportMetric(median(ms[2]), "ms/step-2w")
	b.ReportMetric(median(ratios), "speedup-2v1")
}

// median returns the median of xs, leaving xs as it is.
func median(xs []float64) float64 {
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	return (xs[(len(xs)-1)/2] + xs[len(xs)/2]) / 2
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
	sim := cosmo.SimConfig{NGrid: 32, BoxSize: 64, Priors: cosmo.DefaultPriors()}
	ds, err := cosmo.BuildDataset(sim, 12, 1, 1, 6)
	if err != nil {
		b.Fatal(err)
	}
	var re [3]float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := train.Run(train.Config{
			Ranks: 2, Epochs: 4,
			Topology: nn.TopologyConfig{InputDim: ds.Config.SubVolumeDim(), BaseChannels: 2, Seed: 8},
			Helpers:  4,
			Seed:     7,
		}, ds.Train, ds.Val)
		if err != nil {
			b.Fatal(err)
		}
		re = train.RelativeErrors(train.Evaluate(res.Net, ds.Test, ds.Config.Priors))
	}
	b.ReportMetric(re[0], "relerr-OmegaM")
	b.ReportMetric(re[1], "relerr-sigma8")
	b.ReportMetric(re[2], "relerr-ns")
}

// BenchmarkEq1_IOBandwidth streams single-rank epochs of a 3-shard TFRecord
// set through data.Loader over a bandwidth-throttled DirSource and reports
// the achieved read bandwidth in KB/s — the §VI-A measurement behind
// Equation 1. The cases are Cori's per-node Lustre and DataWarp
// bandwidths at 1024 nodes, and no throttle. Samples are 16³ (16 KB
// against the paper's 8 MB) and both bandwidths are scaled by the same
// factor, so Equation 1's 62 MB/s requirement becomes 127 KB/s: Lustre
// falls short of it, DataWarp clears it.
func BenchmarkEq1_IOBandwidth(b *testing.B) {
	const dim = 16
	dir, m := writeShards(b, benchSamples(24, dim, 51), 8)
	var shardBytes int64
	for _, sh := range m.Split("train") {
		shardBytes += sh.Bytes
	}
	scale := float64(4*dim*dim*dim) / hpcsim.Cori().SampleBytes
	for _, c := range []struct {
		name string
		bw   float64 // paper-scale per-node bytes/s; 0 is unthrottled
	}{
		{"Lustre@1024", hpcsim.CoriLustre().BWPerNode(1024)},
		{"DataWarp@1024", hpcsim.CoriDataWarp().BWPerNode(1024)},
		{"unthrottled", 0},
	} {
		b.Run(c.name, func(b *testing.B) {
			var src data.Source = &data.DirSource{Dir: dir}
			if c.bw > 0 {
				src = &throttledSource{Source: src, t: newThrottle(c.bw * scale)}
			}
			l, err := data.NewLoader(data.Config{Source: src, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				drainEpoch(b, l, i)
			}
			b.ReportMetric(float64(shardBytes*int64(b.N))/1e3/b.Elapsed().Seconds(), "KB/s")
		})
	}
}

// throttle is a token bucket modelling one node's filesystem read
// bandwidth, shared by every reader on that node. It starts empty and
// holds at most one second's worth of bytes (its burst).
type throttle struct {
	mu    sync.Mutex
	rate  float64 // bytes per second, and the burst
	avail float64
	last  time.Time
}

func newThrottle(bytesPerSecond float64) *throttle {
	return &throttle{rate: bytesPerSecond, last: time.Now()}
}

// wait blocks until n bytes of budget are available and takes them. n must
// not exceed the burst: refill stops there, so a larger request would
// never be met.
func (t *throttle) wait(n int) {
	for {
		t.mu.Lock()
		now := time.Now()
		t.avail = min(t.rate, t.avail+now.Sub(t.last).Seconds()*t.rate)
		t.last = now
		if t.avail >= float64(n) {
			t.avail -= float64(n)
			t.mu.Unlock()
			return
		}
		deficit := float64(n) - t.avail
		t.mu.Unlock()
		time.Sleep(time.Duration(deficit / t.rate * float64(time.Second)))
	}
}

// throttledSource paces every shard read of a data.Source through one
// throttle; the manifest fetch is not paced.
type throttledSource struct {
	data.Source
	t *throttle
}

func (s *throttledSource) Open(file string) (io.ReadCloser, error) {
	rc, err := s.Source.Open(file)
	if err != nil {
		return nil, err
	}
	return throttledReader{rc, s.t}, nil
}

type throttledReader struct {
	io.ReadCloser
	t *throttle
}

// Read paces p in pieces no larger than the throttle's burst.
func (r throttledReader) Read(p []byte) (int, error) {
	if burst := int(r.t.rate); len(p) > burst {
		p = p[:burst]
	}
	r.t.wait(len(p))
	return r.ReadCloser.Read(p)
}

// A read larger than the throttle's one-second burst is paced in pieces:
// 256 KiB at 64 KiB/s takes its 4 s budget instead of never returning.
func TestThrottlePacesReadsLargerThanBurst(t *testing.T) {
	const rate, size = 64 << 10, 256 << 10
	r := throttledReader{io.NopCloser(bytes.NewReader(make([]byte, size))), newThrottle(rate)}
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, err := io.ReadFull(r, make([]byte, size))
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(8 * time.Second):
		t.Fatal("a 256 KiB read at 64 KiB/s did not return within 2× its 4 s budget")
	}
	if elapsed := time.Since(start); elapsed < 3*time.Second {
		t.Errorf("a 256 KiB read at 64 KiB/s took %v; the throttle is not pacing", elapsed)
	}
}

// writeShards writes samples as a "train" TFRecord split of perFile-sample
// shards under a fresh directory, with its manifest.
func writeShards(b *testing.B, samples []*cosmo.Sample, perFile int) (string, *data.Manifest) {
	dir := b.TempDir()
	if _, err := tfrecord.WriteDataset(dir, "train", samples, perFile); err != nil {
		b.Fatal(err)
	}
	m, err := data.Scan(dir, "train")
	if err != nil {
		b.Fatal(err)
	}
	if err := data.WriteManifest(dir, m); err != nil {
		b.Fatal(err)
	}
	return dir, m
}

// drainEpoch streams one single-rank epoch from l and returns its sample
// count.
func drainEpoch(b *testing.B, l *data.Loader, epoch int) int {
	s, err := l.EpochStream(epoch, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for n := 0; ; n++ {
		if _, err := s.Next(); err == io.EOF {
			return n
		} else if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDataLoader_Stream measures the streaming data pipeline's supply
// side: one consumer drains single-rank epochs from a data.Loader over a
// freshly written 8-shard × 16-sample dim-16 dataset, and the loader's
// recorder attributes the time to its read and decode stages. The rate to
// beat is the trainer's per-rank demand (EXPERIMENTS.md, data pipeline).
func BenchmarkDataLoader_Stream(b *testing.B) {
	dir, _ := writeShards(b, benchSamples(128, 16, 3), 16)
	rec := obsv.NewRecorder()
	l, err := data.NewLoader(data.Config{Source: &data.DirSource{Dir: dir}, Seed: 3, Recorder: rec})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()

	drainEpoch(b, l, 0) // warm the page cache and the voxel pool
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		total += drainEpoch(b, l, i+1)
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "samples/s")
	for _, st := range rec.Snapshot() {
		if st.Name == "read" || st.Name == "decode" {
			b.ReportMetric(st.AvgMs, st.Name+"-ms")
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
	sim := cosmo.SimConfig{NGrid: 32, BoxSize: 64, Priors: cosmo.DefaultPriors()}
	ds, err := cosmo.BuildDataset(sim, 10, 1, 1, 9)
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

// The forward row kernel's switch, internal/nn's unexported vectorConv,
// bound by name so that BenchmarkConv3DForward can time the pure-Go
// kernel beside the vector one in the same process without the package
// exporting a knob.
//
//go:linkname nnVectorConv repro/internal/nn.vectorConv
var nnVectorConv bool

// BenchmarkConv3DForward times the forward kernel of every convolution
// layer of the two benchmark networks — predict.large's (dim 16, base 16)
// and train.1rank's (dim 32, base 8) — at 1 and 2 workers, on the AVX2
// row kernel and on the pure-Go one (§III-C, Table I's forward column).
// Each iteration is one slice: a Forward on each kernel, alternating which
// goes first, so a stretch of host slowdown hits both sides. It reports
// the median ms of each side, the median over slices of the Go time over
// the vector time (1 on a CPU without AVX2, where both sides run Go), the
// vector side's Gflop/s, and the allocations of a slice's two forwards.
func BenchmarkConv3DForward(b *testing.B) {
	defer func() { nnVectorConv = cpufeat.AVX2 }()
	for _, cfg := range []struct {
		name      string
		dim, base int
	}{{"predict.large", 16, 16}, {"train.1rank", 32, 8}} {
		for _, workers := range []int{1, 2} {
			pool := parallel.NewPool(workers)
			net, err := nn.BuildCosmoFlow(nn.TopologyConfig{
				InputDim: cfg.dim, BaseChannels: cfg.base, Seed: 1, Pool: pool,
			})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(71))
			shape := net.InputShape()
			for _, layer := range net.Layers {
				inShape := shape
				shape = layer.OutputShape(shape)
				conv, ok := layer.(*nn.Conv3D)
				if !ok {
					continue
				}
				x := tensor.New(inShape...)
				x.RandNormal(rng, 0, 1)
				b.Run(fmt.Sprintf("%s/%s/workers=%d", cfg.name, conv.Name(), workers), func(b *testing.B) {
					b.ReportAllocs()
					var ms [2][]float64 // by side: 0 pure Go, 1 vector
					var ratios []float64
					for i := 0; i < b.N; i++ {
						for k := range 2 {
							side := (i + k) % 2
							nnVectorConv = side == 1 && cpufeat.AVX2
							start := time.Now()
							conv.Forward(x)
							ms[side] = append(ms[side], time.Since(start).Seconds()*1e3)
						}
						ratios = append(ratios, ms[0][i]/ms[1][i])
					}
					b.ReportMetric(median(ms[0]), "ms-go")
					b.ReportMetric(median(ms[1]), "ms-vector")
					b.ReportMetric(median(ratios), "go/vector")
					b.ReportMetric(float64(conv.FwdFLOPs(inShape))/1e6/median(ms[1]), "Gflop/s")
				})
			}
			pool.Close()
		}
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
// network's buffer pool at every B). Larger batches amortize per-layer
// overhead and, on multi-core hosts, widen every parallel-for's index
// space; the kernels do no cross-sample weight reuse, so per-sample cost
// is otherwise flat in B.
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
			net.InferBatch(xs) // warm the buffer pool
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
	net.InferBatch(xs) // warm the buffer pool

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
// volumes against the pre-batching serving path (a tight loop of 4 B=1
// InferBatch calls), the ablation behind the batched runBatch.
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
	xs := make([]*tensor.Tensor, batch)
	for i, s := range benchSamples(batch, dim, 121) {
		xs[i] = tensor.FromData(s.Voxels, net.InputShape()...)
	}
	b.Run("sequential-loop", func(b *testing.B) {
		net.InferBatch(xs[:1]) // warm the buffer pool
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := range xs {
				net.InferBatch(xs[k : k+1])
			}
		}
		b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
	})
	b.Run("infer-batch", func(b *testing.B) {
		net.InferBatch(xs) // warm the buffer pool
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net.InferBatch(xs)
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
