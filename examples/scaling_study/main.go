// Scaling study: regenerates the paper's scaling results from the
// calibrated cluster model and demonstrates in-process strong scaling of
// the real Go implementation.
//
// The model sections use internal/hpcsim (calibrated to the paper's
// measured constants): the 1→8192-node Figure-4 efficiency curves for Cori
// with DataWarp, Lustre and unthrottled (dummy-data) input and for Piz
// Daint with Lustre, the §VI-A I/O bandwidth analysis (Equation 1), the
// §VI-B communication bandwidth estimates and the §V-D full-scale run.
//
// The last section actually runs the Go training loop at 1, 2, 4 and 8
// in-process ranks on synthetic data and reports measured epoch times —
// real scaling of the reimplementation, not a model.
//
// Run with:
//
//	go run ./examples/scaling_study
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/cosmo"
	"repro/internal/hpcsim"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/train"
)

func main() {
	log.SetFlags(0)

	fmt.Println("=== Figure 4: fully synchronous training scaling ===")
	nodes := hpcsim.Fig4NodeCounts()
	for _, run := range []struct {
		m  hpcsim.Machine
		fs hpcsim.Filesystem
	}{
		{hpcsim.Cori(), hpcsim.CoriDataWarp()},
		{hpcsim.Cori(), hpcsim.CoriLustre()},
		{hpcsim.Cori(), hpcsim.Unthrottled()},
		{hpcsim.PizDaint(), hpcsim.PizDaintLustre()},
	} {
		// 99,456 training samples per epoch (×2 with augmentation in the paper).
		ms := hpcsim.Sweep(run.m, run.fs, nodes, 99456)
		fmt.Println(hpcsim.FormatSweep(run.m, run.fs, ms))
	}

	cori := hpcsim.Cori()
	fmt.Println("=== §VI-A: I/O analysis (Equation 1) ===")
	fmt.Printf("BWmin = b·S/t = 1 × %.0f MB / %.3f s = %.1f MB/s per node (paper: 62 MB/s)\n",
		cori.SampleBytes/1e6, cori.StepCompute.Seconds(), cori.BWMin()/1e6)
	fmt.Printf("one 2.8 GB/s Lustre OST can feed %.0f nodes (paper: 46)\n", 2.8e9/cori.BWMin())
	s128L, _ := cori.StepTime(hpcsim.CoriLustre(), 128)
	s128B, _ := cori.StepTime(hpcsim.CoriDataWarp(), 128)
	fmt.Printf("step @128 ranks: %v Lustre vs %v DataWarp (%.0f%% gain; paper: 16%%)\n\n",
		s128L.Round(time.Millisecond), s128B.Round(time.Millisecond),
		100*(float64(s128L)/float64(s128B)-1))

	fmt.Println("=== §VI-B: gradient aggregation ===")
	for _, n := range []int{1024, 8192} {
		fmt.Printf("%5d nodes: %.2f GB/s/node effective, %.1f ms latency for the %.2f MB message\n",
			n, cori.CommBandwidth(n)/1e9,
			float64(cori.CommTime(n))/float64(time.Millisecond),
			cori.GradBytes/1e6)
	}
	fmt.Println("(paper: 1.7 GB/s and 33 ms at 1024 nodes; 1.42 GB/s at 8192)")

	fmt.Println("\n=== §V-D: full-scale run ===")
	full := hpcsim.Simulate(cori, hpcsim.CoriDataWarp(), 8192, 8192*20)
	fmt.Printf("8192 nodes × 20 samples: %.2f s/epoch, %.1f%% efficiency, %.2f Pflop/s sustained\n",
		full.EpochTime.Seconds(), 100*full.Efficiency, full.AggregateFlops/1e15)
	fmt.Println("(paper: 3.35 s/epoch, 77% efficiency, 3.5 Pflop/s)")

	fmt.Println("\n=== Measured in-process strong scaling ===")
	rng := rand.New(rand.NewSource(3))
	var samples []*cosmo.Sample
	for i := 0; i < 64; i++ {
		target := [3]float32{rng.Float32(), rng.Float32(), rng.Float32()}
		samples = append(samples, cosmo.SyntheticSample(16, target, rng.Int63()))
	}
	fmt.Printf("%6s %14s %12s %10s\n", "ranks", "epoch time", "samples/s", "speedup")
	var base time.Duration
	for _, ranks := range []int{1, 2, 4, 8} {
		res, err := train.Run(train.Config{
			Ranks:  ranks,
			Epochs: 2,
			Topology: nn.TopologyConfig{
				InputDim: 16, BaseChannels: 2, Seed: 1,
			},
			Optim: optim.Config{},
			Seed:  4,
		}, samples, nil)
		if err != nil {
			log.Fatal(err)
		}
		// Use the second epoch (first is warm-up, as in §V-C).
		e := res.Epochs[len(res.Epochs)-1]
		if ranks == 1 {
			base = e.Duration
		}
		fmt.Printf("%6d %14v %12.1f %10.2fx\n",
			ranks, e.Duration.Round(time.Millisecond), e.SamplesSec,
			float64(base)/float64(e.Duration))
	}
	fmt.Println("\n(in-process ranks share one machine's cores, so measured speedup is" +
		"\n bounded by physical parallelism; the per-step collectives and lockstep" +
		"\n behaviour are the real Algorithm-2 implementation)")
}
