package train

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/obsv"
)

// tracedConfig is smallConfig plus rank 0's timeline and a straggler
// injected at slowRank (pass -1 for none).
func tracedConfig(ranks, epochs, slowRank int) Config {
	cfg := smallConfig(ranks, epochs)
	cfg.Timeline = obsv.NewTimeline(0, 0)
	if slowRank >= 0 {
		cfg.InjectDelay = 3 * time.Millisecond
		cfg.InjectDelayRank = slowRank
	}
	return cfg
}

// lossesBitEqual asserts two runs recorded the same per-epoch losses bit
// for bit (the %.17g round-trip is exact for float64).
func lossesBitEqual(t *testing.T, a, b *Result, context string) {
	t.Helper()
	if len(a.Epochs) != len(b.Epochs) {
		t.Fatalf("%s: %d vs %d epochs", context, len(a.Epochs), len(b.Epochs))
	}
	for i := range a.Epochs {
		av := fmt.Sprintf("%.17g/%.17g", a.Epochs[i].TrainLoss, a.Epochs[i].ValLoss)
		bv := fmt.Sprintf("%.17g/%.17g", b.Epochs[i].TrainLoss, b.Epochs[i].ValLoss)
		if av != bv {
			t.Errorf("%s: epoch %d losses %s vs %s (not bit-identical)", context, i, av, bv)
		}
	}
}

// The tentpole bit-identity guarantee: full tracing plus an injected
// straggler delay must not change a single trained bit — recorded timing
// and sleeps never feed the math.
func TestRunTimelineBitIdentical(t *testing.T) {
	trainSet := syntheticSet(16, 8, 1)
	valSet := syntheticSet(4, 8, 2)

	base, err := Run(smallConfig(4, 2), trainSet, valSet)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := Run(tracedConfig(4, 2, 1), trainSet, valSet)
	if err != nil {
		t.Fatal(err)
	}

	lossesBitEqual(t, base, traced, "traced vs untraced")
	paramsEqual(t, base.Net, traced.Net, "traced vs untraced")

	if len(traced.Timelines) != 4 {
		t.Fatalf("gathered %d rank timelines, want 4", len(traced.Timelines))
	}
	if len(base.Timelines) != 0 {
		t.Errorf("untraced run gathered %d timelines, want none", len(base.Timelines))
	}
	stepsPerEpoch := len(trainSet) / 4
	totalSteps := stepsPerEpoch * 2
	for r, rt := range traced.Timelines {
		if rt.Rank != r {
			t.Errorf("timeline %d has rank %d", r, rt.Rank)
		}
		if rt.Dropped != 0 {
			t.Errorf("rank %d dropped %d events at default cap", r, rt.Dropped)
		}
		counts := map[obsv.Phase]int{}
		for _, ev := range rt.Events {
			counts[ev.Phase]++
			if ev.Step < 0 || int(ev.Step) >= totalSteps {
				t.Errorf("rank %d: step %d outside [0,%d)", r, ev.Step, totalSteps)
			}
			if ev.DurNs < 0 {
				t.Errorf("rank %d: negative duration %d", r, ev.DurNs)
			}
		}
		for _, p := range []obsv.Phase{obsv.PhaseDataWait, obsv.PhaseForward, obsv.PhaseBackward, obsv.PhaseOptimizer} {
			if counts[p] != totalSteps {
				t.Errorf("rank %d: %d %s events, want %d", r, counts[p], p, totalSteps)
			}
		}
		// The allreduce events come from the comm layer: one per gradient
		// buffer reduction per step, plus scalar loss reductions — at
		// least one per step either way.
		if counts[obsv.PhaseAllReduce] < totalSteps {
			t.Errorf("rank %d: %d allreduce events, want >= %d", r, counts[obsv.PhaseAllReduce], totalSteps)
		}
		if counts[obsv.PhaseEval] != 2 {
			t.Errorf("rank %d: %d eval events, want 2", r, counts[obsv.PhaseEval])
		}
	}
}

// The straggler report must attribute an injected forward-phase delay to
// the injected rank, by name, in the greppable summary line the timeline
// smoke test checks. Two ranks and a 50 ms delay keep the injected
// imbalance far above scheduler noise on a box with fewer cores than ranks.
func TestStragglerReportNamesInjectedSlowRank(t *testing.T) {
	trainSet := syntheticSet(8, 8, 3)
	cfg := tracedConfig(2, 2, 1)
	cfg.InjectDelay = 50 * time.Millisecond
	res, err := Run(cfg, trainSet, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := obsv.BuildStragglerReport(res.Timelines)
	if rep.SlowestRank != 1 {
		t.Errorf("SlowestRank = %d, want 1\n%s", rep.SlowestRank, rep.String())
	}
	if rep.SlowestPhase != obsv.PhaseForward {
		t.Errorf("SlowestPhase = %s, want forward", rep.SlowestPhaseName)
	}
	out := rep.String()
	if !strings.Contains(out, "slowest rank: 1") {
		t.Errorf("report does not name the slowed rank:\n%s", out)
	}
	if rep.SamplesPerSec <= 0 {
		t.Errorf("SamplesPerSec = %g, want positive", rep.SamplesPerSec)
	}
}

// Overlapped communication records the comm goroutine's allreduce events
// concurrently with backward on the same lock-free ring; the gather and the
// report must still work, and the trained bits must still match the
// blocking path's bit-identity guarantee (covered elsewhere) — here we
// check the trace shape survives concurrency.
func TestRunTimelineOverlapComm(t *testing.T) {
	trainSet := syntheticSet(8, 8, 4)
	cfg := tracedConfig(2, 1, -1)
	cfg.OverlapComm = true
	res, err := Run(cfg, trainSet, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timelines) != 2 {
		t.Fatalf("gathered %d timelines, want 2", len(res.Timelines))
	}
	for r, rt := range res.Timelines {
		var comm, fwd int
		for _, ev := range rt.Events {
			if ev.Phase == obsv.PhaseAllReduce {
				comm++
			}
			if ev.Phase == obsv.PhaseForward {
				fwd++
			}
		}
		if comm == 0 || fwd == 0 {
			t.Errorf("rank %d: %d allreduce / %d forward events under overlap", r, comm, fwd)
		}
	}
	if rep := obsv.BuildStragglerReport(res.Timelines); rep.Ranks != 2 {
		t.Errorf("report ranks = %d, want 2", rep.Ranks)
	}
}

// Every recorded event is also observed into its phase span: when the ring
// keeps everything, the spans' counts and totals are exactly the sums over
// the ring's events — the numbers -profile and -debug-addr report agree.
func TestRunTimelinePhasesMatchRing(t *testing.T) {
	trainSet := syntheticSet(8, 8, 5)
	cfg := tracedConfig(2, 3, -1)
	res, err := Run(cfg, trainSet, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt := cfg.Timeline.Snapshot()
	if rt.Dropped != 0 {
		t.Fatalf("ring dropped %d events at the default cap", rt.Dropped)
	}
	if gathered := res.Timelines[0]; len(gathered.Events) != len(rt.Events) {
		t.Errorf("gathered rank 0 has %d events, the caller's ring %d", len(gathered.Events), len(rt.Events))
	}
	var counts, totals [obsv.NumPhases]int64
	for _, ev := range rt.Events {
		counts[ev.Phase]++
		totals[ev.Phase] += ev.DurNs
	}
	for _, st := range cfg.Timeline.Phases().Snapshot() {
		p, ok := obsv.ParsePhase(st.Name)
		if !ok {
			t.Fatalf("span %q names no phase", st.Name)
		}
		if st.Count != counts[p] || st.TotalMs != float64(totals[p])/1e6 {
			t.Errorf("span %s: count %d total %v ms, ring has %d events totalling %v ms",
				st.Name, st.Count, st.TotalMs, counts[p], float64(totals[p])/1e6)
		}
	}
	if steps := int64(len(trainSet) / 2 * 3); counts[obsv.PhaseOptimizer] != steps {
		t.Errorf("%d optimizer events, want %d", counts[obsv.PhaseOptimizer], steps)
	}
}

// A ring smaller than the run must wrap and report the overwritten events
// as Dropped rather than failing the gather; ranks 1…N−1 get rings of the
// caller's capacity, and the phase spans keep counting past the wrap.
func TestTimelineCapWrapsWithDropCount(t *testing.T) {
	trainSet := syntheticSet(16, 8, 6)
	cfg := tracedConfig(2, 2, -1)
	cfg.Timeline = obsv.NewTimeline(0, 8)
	res, err := Run(cfg, trainSet, nil)
	if err != nil {
		t.Fatal(err)
	}
	for r, rt := range res.Timelines {
		if len(rt.Events) != 8 {
			t.Errorf("rank %d: %d events, want ring cap 8", r, len(rt.Events))
		}
		if rt.Dropped <= 0 {
			t.Errorf("rank %d: Dropped = %d, want positive after wrap", r, rt.Dropped)
		}
	}
	var recorded int64
	for _, st := range cfg.Timeline.Phases().Snapshot() {
		recorded += st.Count
	}
	if want := 8 + res.Timelines[0].Dropped; recorded != want {
		t.Errorf("phase spans counted %d events, want retained 8 + dropped %d", recorded, res.Timelines[0].Dropped)
	}
	steps := cfg.Timeline.Phases().Span(obsv.PhaseOptimizer.String()).Stat().Count
	if want := int64(len(trainSet) / 2 * 2); steps != want {
		t.Errorf("optimizer span counted %d steps after the wrap, want %d", steps, want)
	}
}

// A timeline is one rank's ring: handing Run or RunDistributed a ring that
// records any other rank must fail up front, not mislabel the gather.
func TestRunRejectsTimelineOfAnotherRank(t *testing.T) {
	trainSet := syntheticSet(4, 8, 8)
	cfg := smallConfig(2, 1)
	cfg.Timeline = obsv.NewTimeline(1, 0)
	if _, err := Run(cfg, trainSet, nil); err == nil || !strings.Contains(err.Error(), "records rank 1") {
		t.Errorf("Run with a rank-1 timeline: err = %v, want a rank mismatch", err)
	}

	w, err := dist.Join(dist.Config{Size: 1, Rank: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	cfg = smallConfig(1, 1)
	cfg.Timeline = obsv.NewTimeline(3, 0)
	if _, err := RunDistributed(cfg, w.Comm(), trainSet, nil); err == nil || !strings.Contains(err.Error(), "records rank 3") {
		t.Errorf("RunDistributed with a rank-3 timeline on rank 0: err = %v, want a rank mismatch", err)
	}
}

// The distributed path gathers over the real TCP transport: rank 0's
// Result carries every rank's timeline; other ranks carry none.
func TestRunDistributedTimelineGather(t *testing.T) {
	trainSet := syntheticSet(8, 8, 7)
	cfg := smallConfig(2, 1)
	cfg.Timeline = obsv.NewTimeline(0, 0)
	results, errs := runTCPWorld(t, cfg, trainSet, nil)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if len(results[0].Timelines) != 2 {
		t.Fatalf("rank 0 gathered %d timelines, want 2", len(results[0].Timelines))
	}
	if len(results[1].Timelines) != 0 {
		t.Errorf("rank 1 holds %d timelines, want none (gather root is rank 0)", len(results[1].Timelines))
	}
	for r, rt := range results[0].Timelines {
		if rt.Rank != r {
			t.Errorf("timeline %d decodes to rank %d", r, rt.Rank)
		}
		if len(rt.Events) == 0 {
			t.Errorf("rank %d timeline is empty", r)
		}
	}
	// The gathered trace must render and read back as Chrome trace JSON.
	var sb strings.Builder
	if err := obsv.WriteChromeTrace(&sb, results[0].Timelines); err != nil {
		t.Fatal(err)
	}
	back, err := obsv.ReadChromeTrace(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("re-reading trace: %v", err)
	}
	if len(back) != 2 {
		t.Errorf("trace round-trips to %d ranks, want 2", len(back))
	}
}

// Each process of a TCP world decides for itself whether to trace, so a
// world where only one rank traces must still finish: every rank joins the
// end-of-run gather, the untraced one with an empty timeline, and rank 0
// gets a trace whose wall-clock alignment the empty rank does not skew.
func TestRunDistributedGatherWithOneRankTracing(t *testing.T) {
	trainSet := syntheticSet(8, 8, 7)
	base, err := Run(smallConfig(2, 1), trainSet, nil)
	if err != nil {
		t.Fatal(err)
	}
	for traced := 0; traced < 2; traced++ {
		cfgs := []Config{smallConfig(2, 1), smallConfig(2, 1)}
		cfgs[traced].Timeline = obsv.NewTimeline(traced, 0)
		results, errs := runTCPRanks(t, cfgs, trainSet, nil)
		for r, err := range errs {
			if err != nil {
				t.Fatalf("rank %d traced: rank %d: %v", traced, r, err)
			}
		}
		lossesBitEqual(t, base, results[0], fmt.Sprintf("rank %d traced vs untraced", traced))
		tls := results[0].Timelines
		if len(tls) != 2 {
			t.Fatalf("rank %d traced: rank 0 gathered %d timelines, want 2", traced, len(tls))
		}
		for r, rt := range tls {
			if got, want := len(rt.Events) > 0, r == traced; rt.Rank != r || got != want {
				t.Errorf("rank %d traced: timeline %d is rank %d with %d events", traced, r, rt.Rank, len(rt.Events))
			}
		}
		var sb strings.Builder
		if err := obsv.WriteChromeTrace(&sb, tls); err != nil {
			t.Fatal(err)
		}
		back, err := obsv.ReadChromeTrace(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("rank %d traced: re-reading trace: %v", traced, err)
		}
		for _, rt := range back {
			if rt.Rank == traced && rt.Events[0].StartNs > int64(time.Minute) {
				t.Errorf("rank %d traced: its first event starts %v into the trace", traced, time.Duration(rt.Events[0].StartNs))
			}
		}
	}
}

// BenchmarkTrain_TimelineOverhead measures the acceptance criterion: a
// dim-16 4-rank traced run must stay within a few percent of the untraced
// samples/s (compare the off/on sub-benchmarks' samples/s metric).
func BenchmarkTrain_TimelineOverhead(b *testing.B) {
	trainSet := syntheticSet(8, 16, 1)
	run := func(b *testing.B, timeline bool) {
		cfg := smallConfig(4, 1)
		cfg.Topology.InputDim = 16
		b.ResetTimer()
		var samples float64
		start := time.Now()
		for i := 0; i < b.N; i++ {
			if timeline {
				cfg.Timeline = obsv.NewTimeline(0, 0)
			}
			res, err := Run(cfg, trainSet, nil)
			if err != nil {
				b.Fatal(err)
			}
			samples += float64(res.Epochs[0].Steps * 4)
		}
		b.ReportMetric(samples/time.Since(start).Seconds(), "samples/s")
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}
