// Command cosmoflow-bench measures per-convolution-layer forward,
// backward-weights and backward-data times of the CosmoFlow topology — the
// Table-I report of the paper — on this machine's Go kernels.
//
// Usage:
//
//	cosmoflow-bench             # scaled-down 32³ network
//	cosmoflow-bench -dim 128 -base 16 -iters 1   # the paper's full size
//	cosmoflow-bench -json BENCH_kernel.json      # machine-readable report
//	cosmoflow-bench -area dist -json BENCH_dist.json
//
// With -json the run also writes a benchmark-trajectory report
// (obsv.Report: git SHA, timestamp, metric→value map) to the given path;
// -area selects what is measured: "kernel" (default) is the Table-I
// per-layer sweep, "dist" times the comm collectives over in-process
// worlds through per-rank timelines, "data" streams the sharded loader,
// "roofline" joins every layer's analytic FLOP count with traced
// forward wall time into per-layer GFLOP/s attribution (the paper's §V-A
// Gflop/s accounting, every layer not just convs), and "train" runs a
// small traced 4-rank training job and reports the straggler analysis's
// gated metrics (samples/s, step time, per-phase means).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/cosmo"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/obsv"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/tfrecord"
	"repro/internal/train"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cosmoflow-bench: ")

	dim := flag.Int("dim", 32, "input volume edge (128 = paper size)")
	base := flag.Int("base", 16, "base channel count (16 = paper)")
	iters := flag.Int("iters", 3, "timing iterations per operator")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "compute threads")
	area := flag.String("area", "kernel", "benchmark area: kernel (Table-I conv sweep), dist (comm collectives), data (loader streaming), roofline (per-layer GFLOP/s attribution), or train (traced 4-rank step-phase timings)")
	jsonPath := flag.String("json", "", "also write an obsv benchmark report to this path (empty: stdout only)")
	flag.Parse()

	var rep *obsv.Report
	switch *area {
	case "kernel":
		rep = benchKernel(*dim, *base, *iters, *workers)
	case "dist":
		rep = benchDist(*iters)
	case "data":
		rep = benchData(*iters, *workers)
	case "roofline":
		rep = benchRoofline(*dim, *base, *iters, *workers)
	case "train":
		rep = benchTrain(*iters)
	default:
		log.Fatalf("unknown -area %q (want kernel, dist, data, roofline, or train)", *area)
	}
	if *jsonPath != "" {
		if err := rep.WriteFile(*jsonPath); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s (%d metrics, sha %s)", *jsonPath, len(rep.Metrics), rep.GitSHA)
	}
}

// benchKernel is the Table-I analogue: per-conv-layer fwd/bwd timings and
// throughputs, printed as the familiar table and accumulated into the
// kernel-area report.
func benchKernel(dim, base, iters, workers int) *obsv.Report {
	pool := parallel.NewPool(workers)
	defer pool.Close()
	net, err := nn.BuildCosmoFlow(nn.TopologyConfig{
		InputDim: dim, BaseChannels: base, Seed: 1, Pool: pool,
	})
	if err != nil {
		log.Fatal(err)
	}

	rep := obsv.NewReport("kernel")
	rep.Config["dim"] = fmt.Sprint(dim)
	rep.Config["base"] = fmt.Sprint(base)
	rep.Config["iters"] = fmt.Sprint(iters)
	rep.Config["workers"] = fmt.Sprint(workers)

	fmt.Printf("Table I analogue: conv layer performance (%d³ input, base %d, %d threads)\n\n",
		dim, base, workers)
	fmt.Printf("%-8s %10s %10s %10s %9s %9s %9s\n",
		"layer", "fwd(ms)", "bww+bwd", "total(ms)", "fwdGF/s", "bwdGF/s", "shape")

	rng := rand.New(rand.NewSource(2))
	shape := net.InputShape()
	var totFwd, totBwd time.Duration
	var totFwdF, totBwdF int64
	for _, layer := range net.Layers {
		conv, ok := layer.(*nn.Conv3D)
		outShape := layer.OutputShape(shape)
		if !ok {
			// Advance activations through non-conv layers once so each
			// conv sees realistic inputs.
			shape = outShape
			continue
		}
		x := tensor.New(shape...)
		x.RandNormal(rng, 0, 1)
		dy := tensor.New(outShape...)
		dy.RandNormal(rng, 0, 1)

		var fwd, bwd time.Duration
		for i := 0; i < iters; i++ {
			start := time.Now()
			conv.Forward(x)
			fwd += time.Since(start)
			start = time.Now()
			conv.Backward(dy)
			bwd += time.Since(start)
		}
		fwd /= time.Duration(iters)
		bwd /= time.Duration(iters)
		fFwd := conv.FwdFLOPs(shape)
		fBwd := conv.BwdFLOPs(shape)
		fmt.Printf("%-8s %10.2f %10.2f %10.2f %9.2f %9.2f   %v\n",
			conv.Name(),
			ms(fwd), ms(bwd), ms(fwd+bwd),
			gflops(fFwd, fwd), gflops(fBwd, bwd), outShape)
		rep.SetLower(conv.Name()+"_fwd_ms", ms(fwd), "ms")
		rep.SetLower(conv.Name()+"_bwd_ms", ms(bwd), "ms")
		totFwd += fwd
		totBwd += bwd
		totFwdF += fFwd
		totBwdF += fBwd
		shape = outShape
	}
	fmt.Printf("%-8s %10.2f %10.2f %10.2f %9.2f %9.2f\n",
		"total", ms(totFwd), ms(totBwd), ms(totFwd+totBwd),
		gflops(totFwdF, totFwd), gflops(totBwdF, totBwd))
	fmt.Println("\npaper (KNL, 128³, MKL-DNN): fwd 8.62 ms total at 2.47 TF/s;" +
		" large layers dominate, conv2 most expensive — compare relative shape, not absolute rates")

	rep.SetLower("total_fwd_ms", ms(totFwd), "ms")
	rep.SetLower("total_bwd_ms", ms(totBwd), "ms")
	rep.SetHigher("total_fwd_gflops", gflops(totFwdF, totFwd), "GF/s")
	rep.SetHigher("total_bwd_gflops", gflops(totBwdF, totBwd), "GF/s")
	return rep
}

// benchRoofline runs traced single-sample forward passes and joins the
// ForwardTrace spans with each layer's analytic FLOP count into the
// per-layer GFLOP/s roofline — the same attribution cosmoflow-serve
// exposes at GET /v1/roofline, here measured offline on this machine's
// kernels so the trajectory can gate it per commit.
func benchRoofline(dim, base, iters, workers int) *obsv.Report {
	pool := parallel.NewPool(workers)
	defer pool.Close()
	net, err := nn.BuildCosmoFlow(nn.TopologyConfig{
		InputDim: dim, BaseChannels: base, Seed: 1, Pool: pool,
	})
	if err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(4))
	x := tensor.New(net.InputShape()...)
	x.RandNormal(rng, 0, 1)
	net.Infer(x) // warm caches before the trace starts counting

	trace := obsv.NewForwardTrace(net.LayerNames())
	net.SetTrace(trace)
	for i := 0; i < iters; i++ {
		net.Infer(x)
	}
	_, spans := trace.Snapshot()

	perLayer := net.PerLayerFLOPs()
	flops := make([]int64, len(perLayer))
	for i, lf := range perLayer {
		flops[i] = lf.Fwd
	}
	// Each Infer is one sample, so samples == iters (unlike serving, where
	// one span observation covers a whole micro-batch).
	roofline := obsv.BuildRoofline(spans, flops, int64(iters))

	rep := obsv.NewReport("roofline")
	rep.Config["dim"] = fmt.Sprint(dim)
	rep.Config["base"] = fmt.Sprint(base)
	rep.Config["iters"] = fmt.Sprint(iters)
	rep.Config["workers"] = fmt.Sprint(workers)

	// Layers below this FLOP count run in microseconds at bench sizes, so
	// their GFLOP/s is scheduler noise; they are printed but stay out of
	// the gated trajectory. The floor is on FLOPs (deterministic for a
	// given -dim/-base), never on observed time — a time floor would make
	// the report's metric set machine-dependent and trip the benchdiff
	// MISSING check across machine classes.
	const gateFloor = 400_000

	fmt.Printf("roofline attribution (%d³ input, base %d, %d threads, %d passes)\n\n",
		dim, base, workers, iters)
	fmt.Printf("%-10s %14s %10s %9s %8s\n", "layer", "flops/sample", "avg(ms)", "GF/s", "%best")
	var totFLOPs int64
	var totMs float64
	starved := ""
	starvedPct := 0.0
	for _, lr := range roofline {
		fmt.Printf("%-10s %14d %10.3f %9.2f %8.1f\n",
			lr.Layer, lr.FLOPsPerSample, lr.AvgMs, lr.GFLOPS, lr.PctOfBest)
		if lr.GFLOPS > 0 {
			if lr.FLOPsPerSample >= gateFloor {
				rep.SetHigher(lr.Layer+"_gflops", lr.GFLOPS, "GF/s")
			}
			if starved == "" || lr.PctOfBest < starvedPct {
				starved, starvedPct = lr.Layer, lr.PctOfBest
			}
		}
		totFLOPs += lr.FLOPsPerSample
		totMs += lr.TotalMs
	}
	if totMs > 0 {
		total := float64(totFLOPs) * float64(iters) / (totMs / 1e3) / 1e9
		fmt.Printf("%-10s %14d %10.3f %9.2f\n", "total", totFLOPs, totMs/float64(iters), total)
		rep.SetHigher("total_fwd_gflops", total, "GF/s")
	}
	if starved != "" {
		fmt.Printf("\nmost FLOP-starved layer: %s (%.1f%% of best observed rate)\n", starved, starvedPct)
	}
	return rep
}

// benchTrain runs a small fully traced in-process 4-rank training job on
// deterministic synthetic data and derives the bench-area "train" metrics
// from the gathered timelines — the same straggler analysis
// cosmoflow-tracecat prints for a real run's trace, here sized to finish
// in seconds so the trajectory can gate step-phase timings per commit.
func benchTrain(iters int) *obsv.Report {
	const (
		ranks   = 4
		tDim    = 16
		samples = 32
	)
	epochs := iters
	if epochs < 1 {
		epochs = 1
	}
	rng := rand.New(rand.NewSource(5))
	set := make([]*cosmo.Sample, samples)
	for i := range set {
		target := [3]float32{rng.Float32(), rng.Float32(), rng.Float32()}
		set[i] = cosmo.SyntheticSample(tDim, target, rng.Int63())
	}
	cfg := train.Config{
		Ranks:  ranks,
		Epochs: epochs,
		Topology: nn.TopologyConfig{
			InputDim:     tDim,
			BaseChannels: 4,
			Seed:         1,
		},
		Algorithm:      comm.Ring,
		Helpers:        2,
		WorkersPerRank: 1,
		Seed:           5,
		Timeline:       obsv.NewTimeline(0, 0),
	}
	res, err := train.Run(cfg, set, nil)
	if err != nil {
		log.Fatal(err)
	}

	sr := obsv.BuildStragglerReport(res.Timelines)
	fmt.Print(sr)

	rep := obsv.NewReport("train")
	sr.FillBenchReport(rep)
	rep.Config["dim"] = fmt.Sprint(tDim)
	rep.Config["samples"] = fmt.Sprint(samples)
	rep.Config["epochs"] = fmt.Sprint(epochs)
	return rep
}

// benchDist times the comm collectives over in-process worlds (sizes 2 and
// 4, ring algorithm) through per-rank timelines attached with
// Comm.SetTimeline — the same collective events a traced TCP world
// records, here exercised deterministically for the trajectory.
func benchDist(iters int) *obsv.Report {
	const elems = 1 << 18 // 1 MiB of float32 per rank, a gradient-sized chunk
	rep := obsv.NewReport("dist")
	rep.Config["elems"] = fmt.Sprint(elems)
	rep.Config["iters"] = fmt.Sprint(iters)
	rep.Config["algorithm"] = comm.Ring.String()

	fmt.Printf("comm collectives (%d float32 elems, %d iters, ring)\n\n", elems, iters)
	fmt.Printf("%-16s %6s %10s %10s %10s\n", "collective", "ranks", "calls", "avg(ms)", "max(ms)")
	for _, n := range []int{2, 4} {
		world, err := comm.NewWorld(n)
		if err != nil {
			log.Fatal(err)
		}
		comms := world.Comms()
		tls := make([]*obsv.Timeline, n)
		for r, c := range comms {
			tls[r] = obsv.NewTimeline(r, 0)
			c.SetTimeline(tls[r])
		}
		runCollectives(comms, elems, iters)
		// Each ring counts its own rank's calls; summed across ranks they
		// are the world's per-collective totals. Every ring lists its
		// phases in the same enum order.
		stats := tls[0].Phases().Snapshot()
		for _, tl := range tls[1:] {
			for i, st := range tl.Phases().Snapshot() {
				stats[i].Count += st.Count
				stats[i].TotalMs += st.TotalMs
				stats[i].MaxMs = max(stats[i].MaxMs, st.MaxMs)
			}
		}
		for _, st := range stats {
			if st.Count == 0 {
				continue
			}
			st.AvgMs = st.TotalMs / float64(st.Count)
			fmt.Printf("%-16s %6d %10d %10.3f %10.3f\n", st.Name, n, st.Count, st.AvgMs, st.MaxMs)
			rep.SetLower(fmt.Sprintf("%s_n%d_avg_ms", st.Name, n), st.AvgMs, "ms")
		}
	}
	return rep
}

// benchData measures the streaming data pipeline: the samples/s a single
// consumer draws from a data.Loader over a freshly written sharded
// dataset, with the loader's per-stage timings (read, decode,
// wait_consumer, starved) through the obsv recorder. The rate to beat is
// the trainer's per-rank demand; EXPERIMENTS.md tracks the two side by
// side.
func benchData(iters, workers int) *obsv.Report {
	const (
		dim     = 16
		samples = 128
		perFile = 16
	)
	dir, err := os.MkdirTemp("", "cosmoflow-bench-data-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	rng := rand.New(rand.NewSource(3))
	set := make([]*cosmo.Sample, samples)
	for i := range set {
		target := [3]float32{rng.Float32(), rng.Float32(), rng.Float32()}
		set[i] = cosmo.SyntheticSample(dim, target, rng.Int63())
	}
	if _, err := tfrecord.WriteDataset(dir, "train", set, perFile); err != nil {
		log.Fatal(err)
	}
	m, err := data.Scan(dir, "train")
	if err != nil {
		log.Fatal(err)
	}
	if err := data.WriteManifest(dir, m); err != nil {
		log.Fatal(err)
	}

	rep := obsv.NewReport("data")
	rep.Config["dim"] = fmt.Sprint(dim)
	rep.Config["samples"] = fmt.Sprint(samples)
	rep.Config["per_file"] = fmt.Sprint(perFile)
	rep.Config["iters"] = fmt.Sprint(iters)
	rep.Config["workers"] = fmt.Sprint(workers)

	rec := obsv.NewRecorder()
	l, err := data.NewLoader(data.Config{
		Source:        &data.DirSource{Dir: dir},
		Seed:          3,
		DecodeWorkers: workers,
		Recorder:      rec,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer l.Close()

	streamEpoch(l, 0) // warm the page cache and the voxel pool
	total := 0
	start := time.Now()
	for it := 1; it <= iters; it++ {
		total += streamEpoch(l, it)
	}
	elapsed := time.Since(start)
	rate := float64(total) / elapsed.Seconds()

	fmt.Printf("data loader streaming (%d³ samples, %d shards × %d, %d decode workers)\n\n",
		dim, len(m.Split("train")), perFile, workers)
	fmt.Printf("streamed %d samples in %v → %.1f samples/s\n",
		total, elapsed.Round(time.Millisecond), rate)
	fmt.Printf("\n%-14s %8s %10s %10s\n", "stage", "obs", "avg(ms)", "max(ms)")
	for _, st := range rec.Snapshot() {
		fmt.Printf("%-14s %8d %10.3f %10.3f\n", st.Name, st.Count, st.AvgMs, st.MaxMs)
		// Only the work stages join the gated trajectory; wait_consumer and
		// starved measure the consumer's pace, not the loader's, so
		// percent-gating them would be pure noise.
		if st.Name == "read" || st.Name == "decode" {
			rep.SetLower("stage_"+st.Name+"_avg_ms", st.AvgMs, "ms")
		}
	}
	rep.SetHigher("stream_samples_per_s", rate, "samples/s")
	return rep
}

// streamEpoch drains one full single-rank epoch from the loader.
func streamEpoch(l *data.Loader, epoch int) int {
	s, err := l.EpochStream(epoch, 0, 1)
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	n := 0
	for {
		if _, err := s.Next(); err != nil {
			if err == io.EOF {
				return n
			}
			log.Fatal(err)
		}
		n++
	}
}

// runCollectives drives every timed collective iters times across all
// ranks of an in-process world.
func runCollectives(comms []*comm.Comm, elems, iters int) {
	for it := 0; it < iters; it++ {
		var wg sync.WaitGroup
		for _, c := range comms {
			wg.Add(1)
			go func(c *comm.Comm) {
				defer wg.Done()
				buf := make([]float32, elems)
				for i := range buf {
					buf[i] = float32(c.Rank() + i)
				}
				c.AllReduceSum(buf)
				c.Broadcast(buf[:elems/2], 0)
				rs := make([]float32, elems)
				copy(rs, buf)
				c.ReduceScatterSum(rs)
				local := buf[:elems/c.Size()]
				out := make([]float32, len(local)*c.Size())
				c.AllGather(local, out)
				c.Barrier()
			}(c)
		}
		wg.Wait()
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func gflops(flops int64, d time.Duration) float64 {
	if d == 0 {
		return 0
	}
	return float64(flops) / d.Seconds() / 1e9
}
