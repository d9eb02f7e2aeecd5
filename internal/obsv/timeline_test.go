package obsv

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// synth builds a RankTimeline by hand: events are (phase, step, startMs,
// durMs) on a shared wall-clock base so cross-rank math is exact.
func synth(rank int, base int64, evs ...[4]int64) RankTimeline {
	rt := RankTimeline{Rank: rank, BaseUnixNs: base}
	for _, e := range evs {
		rt.Events = append(rt.Events, TimelineEvent{
			Phase:   Phase(e[0]),
			Step:    int32(e[1]),
			StartNs: e[2] * 1e6,
			DurNs:   e[3] * 1e6,
		})
	}
	return rt
}

func TestPhaseNamesRoundTrip(t *testing.T) {
	for p := Phase(0); p < NumPhases; p++ {
		name := p.String()
		if strings.Contains(name, "phase(") {
			t.Fatalf("phase %d has no name", p)
		}
		back, ok := ParsePhase(name)
		if !ok || back != p {
			t.Errorf("ParsePhase(%q) = %v,%v, want %v", name, back, ok, p)
		}
	}
	if _, ok := ParsePhase("no_such_phase"); ok {
		t.Error("ParsePhase accepted an unknown name")
	}
	if got := Phase(200).String(); got != "phase(200)" {
		t.Errorf("out-of-range phase renders %q", got)
	}
}

func TestTimelineRecordAndSnapshot(t *testing.T) {
	tl := NewTimeline(3, 16)
	if tl.Rank() != 3 {
		t.Fatalf("Rank() = %d", tl.Rank())
	}
	tl.SetStep(5)
	start := time.Now().Add(-2 * time.Millisecond)
	tl.Record(PhaseForward, start)
	tl.SetStep(6)
	tl.Record(PhaseBackward, time.Now())

	rt := tl.Snapshot()
	if rt.Rank != 3 || rt.Dropped != 0 || len(rt.Events) != 2 {
		t.Fatalf("snapshot %+v", rt)
	}
	ev := rt.Events[0]
	if ev.Phase != PhaseForward || ev.Step != 5 {
		t.Errorf("event 0 = %+v", ev)
	}
	if ev.DurNs < int64(time.Millisecond) {
		t.Errorf("duration %dns, want >= 2ms-ish", ev.DurNs)
	}
	if rt.Events[1].Step != 6 {
		t.Errorf("event 1 step %d, want 6", rt.Events[1].Step)
	}
}

// An untraced loop calls the instrumentation on a nil timeline: nothing is
// recorded and Start hands back the zero time instead of reading the clock.
func TestNilTimelineIsANoOp(t *testing.T) {
	var tl *Timeline
	t0 := tl.Start()
	if !t0.IsZero() {
		t.Errorf("nil Start() = %v, want the zero time", t0)
	}
	tl.SetStep(4)
	tl.Record(PhaseForward, t0)
	if t1 := NewTimeline(0, 1).Start(); t1.IsZero() {
		t.Error("Start() on a timeline returned the zero time")
	}
}

func TestTimelineRingWrapCountsDropped(t *testing.T) {
	tl := NewTimeline(0, 4)
	now := time.Now()
	for i := 0; i < 10; i++ {
		tl.SetStep(i)
		tl.Record(PhaseForward, now)
	}
	rt := tl.Snapshot()
	if len(rt.Events) != 4 {
		t.Fatalf("%d events, want ring cap 4", len(rt.Events))
	}
	if rt.Dropped != 6 {
		t.Errorf("Dropped = %d, want 6", rt.Dropped)
	}
	// Oldest first: the survivors are steps 6..9 in order.
	for i, ev := range rt.Events {
		if int(ev.Step) != 6+i {
			t.Errorf("event %d has step %d, want %d", i, ev.Step, 6+i)
		}
	}
}

func TestTimelineConcurrentRecord(t *testing.T) {
	tl := NewTimeline(0, 4096)
	var wg sync.WaitGroup
	const perG, gs = 500, 4
	// A scrape reads the phase spans while the recorders write them.
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
				tl.Phases().Snapshot()
			}
		}
	}()
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			now := time.Now()
			p := PhaseForward
			if g%2 == 1 {
				p = PhaseAllReduce
			}
			for i := 0; i < perG; i++ {
				tl.Record(p, now)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-scraped
	rt := tl.Snapshot()
	if len(rt.Events)+int(rt.Dropped) != perG*gs {
		t.Errorf("%d retained + %d dropped, want %d total", len(rt.Events), rt.Dropped, perG*gs)
	}
	var observed int64
	for _, st := range tl.Phases().Snapshot() {
		observed += st.Count
	}
	if observed != perG*gs {
		t.Errorf("phase spans observed %d events, want %d", observed, perG*gs)
	}
}

func TestEncodeDecodeTimelineExact(t *testing.T) {
	rt := synth(7, 1234567890123456789,
		[4]int64{int64(PhaseDataWait), 0, 0, 3},
		[4]int64{int64(PhaseForward), 0, 3, 40},
		[4]int64{int64(PhaseAllReduce), 0, 43, 12},
	)
	rt.Dropped = 99
	// Adversarial field values: negative start (pre-base clock skew) and
	// extreme durations must survive the packed i64 round trip.
	rt.Events = append(rt.Events, TimelineEvent{Phase: PhaseEval, Step: -1, StartNs: -5, DurNs: math.MaxInt64})

	back, err := DecodeTimeline(EncodeTimeline(rt))
	if err != nil {
		t.Fatal(err)
	}
	if back.Rank != rt.Rank || back.BaseUnixNs != rt.BaseUnixNs || back.Dropped != rt.Dropped {
		t.Errorf("header: got %+v", back)
	}
	if len(back.Events) != len(rt.Events) {
		t.Fatalf("%d events, want %d", len(back.Events), len(rt.Events))
	}
	for i := range rt.Events {
		if back.Events[i] != rt.Events[i] {
			t.Errorf("event %d: %+v != %+v", i, back.Events[i], rt.Events[i])
		}
	}

	// Empty timeline round-trips too.
	empty, err := DecodeTimeline(EncodeTimeline(RankTimeline{Rank: 2, BaseUnixNs: 42}))
	if err != nil {
		t.Fatal(err)
	}
	if empty.Rank != 2 || empty.BaseUnixNs != 42 || len(empty.Events) != 0 {
		t.Errorf("empty round trip: %+v", empty)
	}
}

func TestDecodeTimelineRejectsCorruption(t *testing.T) {
	good := EncodeTimeline(synth(0, 100, [4]int64{int64(PhaseForward), 1, 0, 5}))

	if _, err := DecodeTimeline(good[:4]); err == nil {
		t.Error("short payload accepted")
	}
	bad := append([]float32(nil), good...)
	bad[0] = math.Float32frombits(math.Float32bits(bad[0]) ^ 1) // flip magic bit
	if _, err := DecodeTimeline(bad); err == nil {
		t.Error("bad magic accepted")
	}
	bad = append([]float32(nil), good...)
	bad[1] = math.Float32frombits(7) // version
	if _, err := DecodeTimeline(bad); err == nil {
		t.Error("bad version accepted")
	}
	if _, err := DecodeTimeline(append([]float32(nil), good[:len(good)-1]...)); err == nil {
		t.Error("truncated events accepted")
	}
	bad = append([]float32(nil), good...)
	bad[8] = math.Float32frombits(255) // phase byte of event 0
	if _, err := DecodeTimeline(bad); err == nil {
		t.Error("unknown phase accepted")
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	tls := []RankTimeline{
		synth(1, 2e6, // rank order scrambled on purpose; bases skewed 1ms
			[4]int64{int64(PhaseForward), 0, 0, 10},
			[4]int64{int64(PhaseAllReduce), 0, 10, 4},
		),
		synth(0, 1e6,
			[4]int64{int64(PhaseForward), 0, 0, 8},
			[4]int64{int64(PhaseBackward), 0, 8, 6},
		),
	}
	var sb strings.Builder
	if err := WriteChromeTrace(&sb, tls); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"traceEvents"`, `"rank 0 train"`, `"rank 1 comm"`, `"ph":"X"`, `"cat":"comm"`} {
		if !strings.Contains(out, want) {
			t.Errorf("trace JSON missing %s", want)
		}
	}

	back, err := ReadChromeTrace(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0].Rank != 0 || back[1].Rank != 1 {
		t.Fatalf("round trip ranks: %+v", back)
	}
	// Rank 1's base is 1ms later than rank 0's; the exporter folds that
	// skew into ts, so rank 1's forward starts at 1ms on the shared axis.
	if got := back[1].Events[0]; got.Phase != PhaseForward || got.StartNs != 1e6 || got.DurNs != 10e6 {
		t.Errorf("rank 1 event 0 = %+v", got)
	}
	if got := back[0].Events[1]; got.Phase != PhaseBackward || got.Step != 0 || got.DurNs != 6e6 {
		t.Errorf("rank 0 event 1 = %+v", got)
	}

	if err := WriteChromeTrace(&sb, nil); err == nil {
		t.Error("empty timeline export accepted")
	}
}

func TestReadChromeTraceRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":        `{"traceEvents": [}`,
		"no traceEvents":  `{"displayTimeUnit":"ms"}`,
		"array form":      `[]`,
		"no phase events": `{"traceEvents":[{"name":"thread_name","ph":"M","pid":0,"tid":0}]}`,
		"bad ph":          `{"traceEvents":[{"name":"forward","ph":"B","ts":0,"pid":0,"tid":0}]}`,
		"unknown phase":   `{"traceEvents":[{"name":"warp_drive","ph":"X","ts":0,"dur":1,"pid":0,"tid":0}]}`,
		"missing dur":     `{"traceEvents":[{"name":"forward","ph":"X","ts":0,"pid":0,"tid":0}]}`,
		"negative dur":    `{"traceEvents":[{"name":"forward","ph":"X","ts":0,"dur":-1,"pid":0,"tid":0}]}`,
		"negative ts":     `{"traceEvents":[{"name":"forward","ph":"X","ts":-2,"dur":1,"pid":0,"tid":0}]}`,
		"negative tid":    `{"traceEvents":[{"name":"forward","ph":"X","ts":0,"dur":1,"pid":0,"tid":-4}]}`,
		"string step":     `{"traceEvents":[{"name":"forward","ph":"X","ts":0,"dur":1,"pid":0,"tid":0,"args":{"step":"seven"}}]}`,
	}
	for name, in := range cases {
		if _, err := ReadChromeTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestBuildStragglerReportAttribution(t *testing.T) {
	// Three ranks, two steps. Rank 1's forward is 3x slower; fast ranks
	// absorb the skew as allreduce wait, so busy time — not comm time —
	// must drive the attribution.
	mk := func(rank int, fwd int64) RankTimeline {
		return synth(rank, 1000,
			[4]int64{int64(PhaseDataWait), 0, 0, 1},
			[4]int64{int64(PhaseForward), 0, 1, fwd},
			[4]int64{int64(PhaseBackward), 0, 1 + fwd, 10},
			[4]int64{int64(PhaseAllReduce), 0, 11 + fwd, 31 - fwd},
			[4]int64{int64(PhaseOptimizer), 0, 42, 2},
			[4]int64{int64(PhaseDataWait), 1, 44, 1},
			[4]int64{int64(PhaseForward), 1, 45, fwd},
			[4]int64{int64(PhaseBackward), 1, 45 + fwd, 10},
			[4]int64{int64(PhaseAllReduce), 1, 55 + fwd, 31 - fwd},
			[4]int64{int64(PhaseOptimizer), 1, 86, 2},
		)
	}
	rep := BuildStragglerReport([]RankTimeline{mk(2, 10), mk(0, 10), mk(1, 30)})

	if rep.Ranks != 3 || rep.Steps != 2 {
		t.Fatalf("ranks/steps = %d/%d", rep.Ranks, rep.Steps)
	}
	if rep.SlowestRank != 1 {
		t.Errorf("SlowestRank = %d, want 1\n%s", rep.SlowestRank, rep)
	}
	if rep.SlowestPhase != PhaseForward {
		t.Errorf("SlowestPhase = %s, want forward", rep.SlowestPhaseName)
	}
	// Busy: fast ranks 1+10+10+2 = 23/step, rank 1 is 43/step. Mean busy
	// = (23+23+43)*2/3; excess = (86-59.33)/59.33 = 44.9%.
	if rep.SlowestExcessPct < 40 || rep.SlowestExcessPct > 50 {
		t.Errorf("SlowestExcessPct = %.1f, want ~44.9", rep.SlowestExcessPct)
	}
	// Span 88ms, 2 steps x 3 ranks.
	if rep.SpanMs != 88 {
		t.Errorf("SpanMs = %g, want 88", rep.SpanMs)
	}
	if want := 6.0 / 0.088; math.Abs(rep.SamplesPerSec-want) > 1e-6 {
		t.Errorf("SamplesPerSec = %g, want %g", rep.SamplesPerSec, want)
	}

	out := rep.String()
	for _, want := range []string{"slowest rank: 1", "largest excess: forward", "per-phase per-rank timings"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}

	// Per-phase cells: forward's slowest rank is 1, mean total = (20+20+60)/3.
	for _, ps := range rep.Phases {
		if ps.Phase != PhaseForward {
			continue
		}
		if ps.SlowestRank != 1 {
			t.Errorf("forward slowest rank = %d", ps.SlowestRank)
		}
		if math.Abs(ps.MeanTotalMs-100.0/3) > 1e-9 {
			t.Errorf("forward MeanTotalMs = %g", ps.MeanTotalMs)
		}
		for _, st := range ps.Ranks {
			wantMean := 10.0
			if st.Rank == 1 {
				wantMean = 30
			}
			if st.Count != 2 || st.MeanMs != wantMean || st.MaxMs != wantMean {
				t.Errorf("forward rank %d cell = %+v", st.Rank, st)
			}
		}
	}
}

func TestBuildStragglerReportOverlap(t *testing.T) {
	// One rank: backward spans [0,100); allreduce [50,150) overlaps half
	// its own duration with compute. Second rank fully serial.
	overlapped := synth(0, 0,
		[4]int64{int64(PhaseBackward), 0, 0, 100},
		[4]int64{int64(PhaseAllReduce), 0, 50, 100},
	)
	serial := synth(1, 0,
		[4]int64{int64(PhaseBackward), 0, 0, 100},
		[4]int64{int64(PhaseAllReduce), 0, 100, 100},
	)
	rep := BuildStragglerReport([]RankTimeline{overlapped, serial})
	if got := rep.PerRank[0].OverlapPct; math.Abs(got-50) > 1e-9 {
		t.Errorf("rank 0 overlap = %.1f%%, want 50", got)
	}
	if got := rep.PerRank[1].OverlapPct; got != 0 {
		t.Errorf("rank 1 overlap = %.1f%%, want 0", got)
	}
	if rep.PerRank[0].OverlapMs != 50 || rep.PerRank[0].CommMs != 100 {
		t.Errorf("rank 0 summary = %+v", rep.PerRank[0])
	}
}

func TestBuildStragglerReportEdgeCases(t *testing.T) {
	if rep := BuildStragglerReport(nil); rep.Ranks != 0 || len(rep.PerRank) != 0 {
		t.Errorf("empty input: %+v", rep)
	}
	// A rank with a wrapped ring surfaces in Dropped and the rendering.
	rt := synth(0, 0, [4]int64{int64(PhaseForward), 3, 0, 5})
	rt.Dropped = 12
	rep := BuildStragglerReport([]RankTimeline{rt})
	if rep.Dropped[0] != 12 {
		t.Errorf("Dropped = %v", rep.Dropped)
	}
	if !strings.Contains(rep.String(), "overwrote 12 events") {
		t.Error("rendering does not warn about the wrapped ring")
	}
	if rep.Steps != 1 {
		t.Errorf("Steps = %d, want 1 (single step 3)", rep.Steps)
	}
}
