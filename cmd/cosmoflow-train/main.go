// Command cosmoflow-train runs fully synchronous data-parallel training
// (Algorithm 2) of the CosmoFlow network, either on a TFRecord dataset
// produced by cosmoflow-datagen or on generated-on-the-fly synthetic data
// (the paper's "dummy data" mode, §V-C1).
//
// Ranks can be in-process goroutines (the default) or separate OS
// processes joined over TCP (internal/dist): -dist runs this process as
// one rank of a -world N world meeting at -rendezvous, and -launch N
// forks N local worker processes, supervises them, and — when -ckpt is
// set — relaunches the whole world from the latest checkpoint if a rank
// dies. Both modes are bit-identical to the in-process run at the same
// seed and world size.
//
// With -stream (or -data-url, which streams from a cosmoflow-shardd
// server) the training split never sits whole in memory: each rank
// streams its rank-disjoint per-epoch shard assignment through a
// double-buffered data.Loader, with identical results to the in-memory
// modes' determinism contract — same seed, same losses, bit for bit.
//
// The local rank's obsv.Timeline is the trainer's one clock. -profile,
// -timeline-out and -debug-addr each attach it: -profile prints rank 0's
// whole-run per-phase share of step time (the Figure-3 analogue),
// -timeline-out writes every rank's events as a Chrome trace, and
// -debug-addr serves the local rank's phase spans, step and epoch counts
// and throughput on /metrics. Without any of them no clock is read inside
// a step. The processes of a -dist world may set these flags differently:
// a rank without a timeline joins the end-of-run gather with no events.
//
// Usage:
//
//	cosmoflow-train -data data/ -ranks 4 -epochs 8 -profile
//	cosmoflow-train -stream -data data/ -ranks 4 -epochs 8
//	cosmoflow-train -data-url http://127.0.0.1:9000 -launch 2 -epochs 4
//	cosmoflow-train -synthetic 64 -dim 16 -ranks 8 -epochs 4
//	cosmoflow-train -synthetic 64 -launch 4 -epochs 4 -ckpt /tmp/cf.ckpt
//	cosmoflow-train -synthetic 64 -dist -world 4 -rank 0 -rendezvous :29500
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"strings"
	"time"

	"repro/internal/comm"
	"repro/internal/cosmo"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/obsv"
	"repro/internal/optim"
	"repro/internal/tfrecord"
	"repro/internal/train"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cosmoflow-train: ")

	dataDir := flag.String("data", "", "TFRecord dataset directory (from cosmoflow-datagen)")
	stream := flag.Bool("stream", false, "stream the training split shard-by-shard from -data instead of loading it whole (needs a manifest)")
	dataURL := flag.String("data-url", "", "stream the dataset from a cosmoflow-shardd server at this URL (implies -stream)")
	synthetic := flag.Int("synthetic", 0, "train on N synthetic samples instead of files")
	dim := flag.Int("dim", 16, "synthetic sample edge length (power of two)")
	ranks := flag.Int("ranks", 4, "data-parallel workers (global batch size, §III-B)")
	epochs := flag.Int("epochs", 4, "training epochs")
	base := flag.Int("base", 4, "base channel count (16 = paper scale)")
	algo := flag.String("algo", "ring", "allreduce algorithm: ring, rd, central")
	helpers := flag.Int("helpers", 4, "allreduce helper teams (§III-D)")
	workers := flag.Int("workers", 1, "compute threads per rank")
	profile := flag.Bool("profile", false, "print rank 0's per-phase share of step time from its timeline (the Figure-3 analogue)")
	seed := flag.Int64("seed", 1, "random seed")
	ckpt := flag.String("ckpt", "", "checkpoint file to write each epoch (and to read with -resume)")
	resume := flag.String("resume", "", "checkpoint file to resume from")
	overlap := flag.Bool("overlap", false, "overlap gradient aggregation with backprop (§III-D)")
	distMode := flag.Bool("dist", false, "run as one rank of a multi-process TCP world")
	rank := flag.Int("rank", -1, "with -dist: rank to claim (0 hosts the rendezvous; -1 = assigned)")
	world := flag.Int("world", 0, "with -dist: world size (replaces -ranks)")
	rendezvous := flag.String("rendezvous", "127.0.0.1:29500", "with -dist: rendezvous address")
	launch := flag.Int("launch", 0, "fork N local worker processes and supervise them")
	maxRestarts := flag.Int("max-restarts", 2, "with -launch and -ckpt: relaunch a failed world up to N times")
	abortAfter := flag.Int("abort-after", 0, "fault injection: rank 0 aborts after N epochs (dist mode; for tests)")
	debugAddr := flag.String("debug-addr", "", "pprof + /metrics debug listen address, e.g. localhost:6063 (empty: disabled; /metrics carries the local rank's step phases and progress, plus the streaming loader's stage spans)")
	timelineOut := flag.String("timeline-out", "", "write the run's per-rank phase timeline as Chrome trace-event JSON to this file (rank 0 writes; view in Perfetto or with cosmoflow-tracecat)")
	timelineCap := flag.Int("timeline-cap", obsv.DefaultTimelineCap, "per-rank timeline ring capacity in events; oldest events are overwritten beyond it")
	slowRank := flag.Int("slow-rank", -1, "straggler injection: sleep -slow-ms inside this rank's forward phase (-1: off; for the timeline smoke test)")
	slowMs := flag.Int("slow-ms", 0, "straggler injection: per-step forward delay in milliseconds on -slow-rank")
	flag.Parse()

	if *launch > 0 {
		os.Exit(runLauncher(*launch, *ckpt, *maxRestarts))
	}

	var trainSet, valSet []*cosmo.Sample
	var loader *data.Loader
	var loaderRec *obsv.Recorder
	switch {
	case *stream || *dataURL != "":
		// Streaming mode: the training split never sits whole in memory.
		// Every process of a distributed world opens its own loader and
		// streams only its rank-disjoint shard assignment each epoch.
		var src data.Source
		if *dataURL != "" {
			src = &data.HTTPSource{Base: *dataURL}
		} else if *dataDir != "" {
			src = &data.DirSource{Dir: *dataDir}
		} else {
			log.Fatal("-stream requires -data DIR (or use -data-url URL)")
		}
		var err error
		loaderRec = obsv.NewRecorder()
		loader, err = data.NewLoader(data.Config{Source: src, Seed: *seed, Recorder: loaderRec})
		if err != nil {
			log.Fatal(err)
		}
		defer loader.Close()
		valSet, err = data.ReadAll(src, "val")
		if err != nil {
			log.Fatal(err)
		}
	case *dataDir != "":
		var err error
		trainSet, err = tfrecord.ReadSplit(*dataDir, "train")
		if err != nil {
			log.Fatal(err)
		}
		valSet, _ = tfrecord.ReadSplit(*dataDir, "val")
		if len(trainSet) == 0 {
			log.Fatalf("no train-*.tfrecord files in %s", *dataDir)
		}
	case *synthetic > 0:
		// Deterministic in the seed: every process of a distributed world
		// regenerates the identical dataset locally, no data movement.
		rng := rand.New(rand.NewSource(*seed))
		for i := 0; i < *synthetic; i++ {
			target := [3]float32{rng.Float32(), rng.Float32(), rng.Float32()}
			trainSet = append(trainSet, cosmo.SyntheticSample(*dim, target, rng.Int63()))
		}
		valSet = trainSet[:min(len(trainSet), 8)]
	default:
		log.Fatal("provide -data DIR, -data-url URL, or -synthetic N")
	}

	algorithm := comm.Ring
	switch *algo {
	case "ring":
	case "rd":
		algorithm = comm.RecursiveDoubling
	case "central":
		algorithm = comm.Central
	default:
		log.Fatalf("unknown algorithm %q", *algo)
	}

	nRanks := *ranks
	if *distMode {
		if *world < 1 {
			log.Fatal("-dist requires -world N")
		}
		nRanks = *world
	}

	// Any observability output attaches the local rank's timeline, built
	// once the rank is known; -debug-addr scrapes it live. Training is not
	// an HTTP daemon, so the debug listener is its only scrape surface.
	localTimeline := func(rank int) *obsv.Timeline {
		if !*profile && *timelineOut == "" && *debugAddr == "" {
			return nil
		}
		tl := obsv.NewTimeline(rank, *timelineCap)
		if *debugAddr != "" {
			obsv.StartDebugListener(*debugAddr, trainMetrics(tl, nRanks, loaderRec))
		}
		return tl
	}

	inputDim := 0
	if loader != nil {
		inputDim = loader.Dim()
		log.Printf("streaming %d train shards (%d samples, dim %d), %d val samples in memory",
			loader.Shards(), loader.TotalSamples(), inputDim, len(valSet))
	} else {
		inputDim = trainSet[0].Dim
	}

	cfg := train.Config{
		Ranks:  nRanks,
		Epochs: *epochs,
		Topology: nn.TopologyConfig{
			InputDim:     inputDim,
			BaseChannels: *base,
			Seed:         *seed + 1,
		},
		Optim:           optim.Config{},
		Algorithm:       algorithm,
		Helpers:         *helpers,
		WorkersPerRank:  *workers,
		Seed:            *seed,
		CheckpointPath:  *ckpt,
		ResumeFrom:      *resume,
		OverlapComm:     *overlap,
		AbortAfterEpoch: *abortAfter,
	}
	if *slowRank >= 0 && *slowMs > 0 {
		cfg.InjectDelay = time.Duration(*slowMs) * time.Millisecond
		cfg.InjectDelayRank = *slowRank
	}
	if loader != nil {
		// Guarded: assigning a nil *data.Loader would make the interface
		// non-nil and switch train into streaming mode with no dataset.
		cfg.Data = loader
	}

	if !*distMode {
		fmt.Printf("CosmoFlow training: %d ranks × batch 1 (global batch %d), %s allreduce, %d helpers\n",
			nRanks, nRanks, algorithm, *helpers)
		cfg.Timeline = localTimeline(0)
		res, err := train.Run(cfg, trainSet, valSet)
		if err != nil {
			log.Fatal(err)
		}
		report(res, *profile, cfg.Timeline)
		writeTimeline(*timelineOut, res)
		return
	}

	w, err := dist.Join(dist.Config{
		Size:       *world,
		Rank:       *rank,
		Rendezvous: *rendezvous,
		Algorithm:  algorithm,
		Helpers:    *helpers,
	})
	if err != nil {
		log.Fatal(err)
	}
	if w.Rank() == 0 {
		fmt.Printf("CosmoFlow training: %d processes × batch 1 (global batch %d), %s allreduce over TCP, %d helpers\n",
			*world, *world, algorithm, *helpers)
	}
	cfg.Timeline = localTimeline(w.Rank())
	res, err := train.RunDistributed(cfg, w.Comm(), trainSet, valSet)
	if err != nil {
		// Close announces the departure so peers fail fast instead of
		// waiting out the heartbeat timeout.
		w.Close()
		log.Fatalf("rank %d: %v", w.Rank(), err)
	}
	if w.Rank() == 0 {
		report(res, *profile, cfg.Timeline)
		writeTimeline(*timelineOut, res)
		fmt.Printf("rank 0 collective traffic: %.2f MB in %d messages\n",
			float64(w.BytesSent())/1e6, w.MessagesSent())
	} else {
		log.Printf("rank %d finished (%.2f MB sent)", w.Rank(), float64(w.BytesSent())/1e6)
	}
	w.Close()
}

// report prints the per-epoch table and throughput summary (rank 0 only in
// distributed mode; resumed runs skip the epochs the checkpoint covered),
// and with -profile rank 0's phase shares from its timeline tl.
func report(res *train.Result, profile bool, tl *obsv.Timeline) {
	fmt.Println(res.Net.Summary())
	fmt.Printf("%6s %12s %12s %10s %12s\n", "epoch", "train loss", "val loss", "time", "samples/s")
	for _, e := range res.Epochs {
		if e.Steps == 0 {
			continue // completed before a resume; not retrained
		}
		fmt.Printf("%6d %12.6f %12.6f %10v %12.2f\n",
			e.Epoch, e.TrainLoss, e.ValLoss, e.Duration.Round(time.Millisecond), e.SamplesSec)
	}
	fwd, bwd := res.Net.TotalFLOPs()
	fmt.Printf("\nnetwork: %.2f Mflop/sample fwd, %.2f Mflop bwd; gradient message %.2f MB\n",
		float64(fwd)/1e6, float64(bwd)/1e6, float64(res.GradBytes)/1e6)
	fmt.Printf("sustained %.2f Gflop/s across all ranks; total wall time %v\n",
		train.SustainedFlops(res)/1e9, res.TotalTime.Round(time.Millisecond))
	if profile {
		fmt.Println("\ntime breakdown (rank 0, Figure-3 analogue):")
		fmt.Print(phaseShares(tl.Phases().Snapshot()))
	}
}

// phaseShares renders one rank's whole-run time per phase, from its
// timeline's phase spans, and each phase's share of the total. Collective
// phases are the comm layer's own events, so under -overlap they run
// concurrently with backward: the shares divide recorded phase time, not
// wall time.
func phaseShares(phases []obsv.SpanStat) string {
	var sum float64
	for _, st := range phases {
		sum += st.TotalMs
	}
	ms := func(v float64) time.Duration { return time.Duration(v * 1e6).Round(time.Microsecond) }
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %12s %8s %7s\n", "phase", "time", "events", "share")
	for _, st := range phases {
		if st.Count > 0 {
			fmt.Fprintf(&b, "%-16s %12v %8d %6.1f%%\n", st.Name, ms(st.TotalMs), st.Count, 100*st.TotalMs/sum)
		}
	}
	fmt.Fprintf(&b, "%-16s %12v\n", "total", ms(sum))
	return b.String()
}

// trainMetrics builds the -debug-addr registry. Every training family is
// read at scrape time from the local rank's timeline spans, which keep
// counting after the ring wraps; loaderRec, when non-nil, adds the
// streaming loader's stage spans.
func trainMetrics(tl *obsv.Timeline, ranks int, loaderRec *obsv.Recorder) *obsv.MetricsRegistry {
	reg := obsv.NewMetricsRegistry()
	startedAt := time.Now()
	phases := tl.Phases()
	steps := phases.Span(obsv.PhaseOptimizer.String())
	epochs := phases.Span(obsv.PhaseEval.String())
	value := func(v func() float64) func() []obsv.Sample {
		return func() []obsv.Sample { return []obsv.Sample{{Value: v()}} }
	}
	reg.GaugeFunc("cosmoflow_train_uptime_seconds", "seconds since training started",
		value(func() float64 { return time.Since(startedAt).Seconds() }))
	reg.CounterFunc("cosmoflow_train_steps_total", "optimizer steps completed by the local rank (its optimizer phase events)",
		value(func() float64 { return float64(steps.Stat().Count) }))
	reg.GaugeFunc("cosmoflow_train_epoch", "training epochs completed by the local rank since this process started (its eval phase events); epochs a -resume checkpoint covered are not counted",
		value(func() float64 { return float64(epochs.Stat().Count) }))
	reg.GaugeFunc("cosmoflow_train_samples_per_second", "global training samples per second averaged over the whole uptime, setup included: ranks × local optimizer steps ÷ uptime (not the latest epoch's rate)",
		value(func() float64 { return float64(ranks) * float64(steps.Stat().Count) / time.Since(startedAt).Seconds() }))
	obsv.RegisterRecorder(reg, "cosmoflow_train_phase", "the local rank's step phases and collectives, from its timeline", phases)
	if loaderRec != nil {
		obsv.RegisterRecorder(reg, "cosmoflow_train_loader", "streaming loader stage spans", loaderRec)
	}
	return reg
}

// writeTimeline exports the gathered rank timelines (rank 0's Result only;
// a no-op on other ranks, whose gather leaves Timelines empty).
func writeTimeline(path string, res *train.Result) {
	if path == "" || len(res.Timelines) == 0 {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := obsv.WriteChromeTrace(f, res.Timelines); err != nil {
		f.Close()
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %d-rank timeline trace to %s", len(res.Timelines), path)
}

// runLauncher is the -launch N convenience mode: fork N local worker
// processes (rank i hosting the rendezvous at a freshly picked port for
// i = 0), wait for the world, and — when checkpointing is on — relaunch a
// failed world from the latest checkpoint, the paper-scale operational
// loop (die → reschedule → resume) in miniature.
func runLauncher(n int, ckpt string, maxRestarts int) int {
	self, err := os.Executable()
	if err != nil {
		log.Print(err)
		return 1
	}
	for attempt := 0; ; attempt++ {
		addr, err := freePort()
		if err != nil {
			log.Print(err)
			return 1
		}
		resume := ""
		if attempt > 0 {
			resume = ckpt
		}
		log.Printf("launching %d workers (attempt %d, rendezvous %s)", n, attempt+1, addr)
		cmds := make([]*exec.Cmd, n)
		for i := 0; i < n; i++ {
			cmds[i] = exec.Command(self, childArgs(n, i, addr, resume)...)
			cmds[i].Stdout = os.Stdout
			cmds[i].Stderr = os.Stderr
		}
		failed := false
		for i, cmd := range cmds {
			if err := cmd.Start(); err != nil {
				log.Printf("starting rank %d: %v", i, err)
				failed = true
			}
		}
		for i, cmd := range cmds {
			if cmd.Process == nil {
				continue
			}
			if err := cmd.Wait(); err != nil {
				log.Printf("rank %d exited: %v", i, err)
				failed = true
			}
		}
		if !failed {
			return 0
		}
		if ckpt == "" {
			log.Print("world failed; no -ckpt to resume from")
			return 1
		}
		if _, err := os.Stat(ckpt); err != nil {
			log.Printf("world failed before writing a checkpoint (%v)", err)
			return 1
		}
		if attempt >= maxRestarts {
			log.Printf("world failed %d times; giving up", attempt+1)
			return 1
		}
		log.Printf("world failed; relaunching from %s", ckpt)
	}
}

// childArgs rebuilds this invocation's explicitly set flags for a worker
// process, replacing the orchestration flags with the worker's identity.
// Relaunch attempts force -resume and drop -abort-after, so an injected
// fault fires exactly once.
func childArgs(world, rank int, rendezvous, resume string) []string {
	var out []string
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "launch", "max-restarts", "dist", "rank", "world", "rendezvous":
			return
		case "resume":
			if resume != "" {
				return // overridden below
			}
		case "abort-after":
			if resume != "" {
				return // injected fault already fired on the first attempt
			}
		}
		out = append(out, "-"+f.Name+"="+f.Value.String())
	})
	out = append(out,
		"-dist",
		fmt.Sprintf("-world=%d", world),
		fmt.Sprintf("-rank=%d", rank),
		"-rendezvous="+rendezvous)
	if resume != "" {
		out = append(out, "-resume="+resume)
	}
	return out
}

// freePort reserves an ephemeral localhost port for the rendezvous. The
// listener closes before the workers start — a small race, acceptable for
// a single-machine convenience mode.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}
