package obsv

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// PhaseRankStat is one (phase, rank) cell of the straggler report.
type PhaseRankStat struct {
	Rank    int     `json:"rank"`
	Count   int     `json:"count"`
	MeanMs  float64 `json:"mean_ms"`
	P95Ms   float64 `json:"p95_ms"`
	MaxMs   float64 `json:"max_ms"`
	TotalMs float64 `json:"total_ms"`
}

// PhaseStats aggregates one phase across ranks, attributing its slowest
// rank by total time spent in the phase.
type PhaseStats struct {
	Phase       Phase           `json:"-"`
	Name        string          `json:"phase"`
	Ranks       []PhaseRankStat `json:"ranks"`
	SlowestRank int             `json:"slowest_rank"`
	MeanTotalMs float64         `json:"mean_total_ms"` // mean across ranks of per-rank total
}

// RankSummary is one rank's step-time decomposition: busy is the non-comm
// work (data wait + compute + optimizer + checkpoint + eval), comm is the
// collective time, and overlap is how much of that comm ran concurrently
// with forward/backward compute — the fraction the ROADMAP's comm-overlap
// work wants driven toward 1.
type RankSummary struct {
	Rank       int     `json:"rank"`
	Steps      int     `json:"steps"`
	BusyMs     float64 `json:"busy_ms"`
	CommMs     float64 `json:"comm_ms"`
	OverlapMs  float64 `json:"overlap_ms"`
	OverlapPct float64 `json:"overlap_pct"` // overlap as % of comm time
}

// StragglerReport is the cross-rank imbalance analysis built from gathered
// rank timelines: per-phase per-rank timing cells, per-rank summaries, and
// a single slowest-rank attribution with the phase that put it there.
type StragglerReport struct {
	Ranks            int           `json:"ranks"`
	Steps            int           `json:"steps"`
	SpanMs           float64       `json:"span_ms"`
	SamplesPerSec    float64       `json:"samples_per_sec"`
	Phases           []PhaseStats  `json:"phases"`
	PerRank          []RankSummary `json:"per_rank"`
	SlowestRank      int           `json:"slowest_rank"`
	SlowestExcessPct float64       `json:"slowest_excess_pct"` // busy vs mean busy
	SlowestPhase     Phase         `json:"-"`
	SlowestPhaseName string        `json:"slowest_phase"`
	Dropped          map[int]int64 `json:"dropped,omitempty"` // rank -> overwritten events
}

// interval is a [start, end) slice of one rank's clock.
type interval struct{ lo, hi int64 }

// mergeIntervals sorts and coalesces overlapping intervals.
func mergeIntervals(ivs []interval) []interval {
	if len(ivs) == 0 {
		return nil
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.lo <= last.hi {
			if iv.hi > last.hi {
				last.hi = iv.hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// intersectLen returns the total overlap between two merged interval sets.
func intersectLen(a, b []interval) int64 {
	var total int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo := a[i].lo
		if b[j].lo > lo {
			lo = b[j].lo
		}
		hi := a[i].hi
		if b[j].hi < hi {
			hi = b[j].hi
		}
		if hi > lo {
			total += hi - lo
		}
		if a[i].hi < b[j].hi {
			i++
		} else {
			j++
		}
	}
	return total
}

// BuildStragglerReport analyzes gathered rank timelines. Timelines need
// not be pre-sorted; ranks with no events still appear in the summaries.
func BuildStragglerReport(tls []RankTimeline) *StragglerReport {
	sorted := append([]RankTimeline(nil), tls...)
	SortTimelines(sorted)
	rep := &StragglerReport{Ranks: len(sorted)}
	if len(sorted) == 0 {
		return rep
	}

	minStep, maxStep := int32(math.MaxInt32), int32(math.MinInt32)
	var spanLo, spanHi int64 // unix ns
	first := true
	type cell struct {
		durs  []int64
		total int64
		max   int64
	}
	perPhase := make(map[Phase][]cell, NumPhases) // phase -> per-rank index
	for i := range sorted {
		rt := &sorted[i]
		if rt.Dropped > 0 {
			if rep.Dropped == nil {
				rep.Dropped = map[int]int64{}
			}
			rep.Dropped[rt.Rank] = rt.Dropped
		}
		var compute, comm []interval
		var busy, commNs int64
		for _, ev := range rt.Events {
			if ev.Step < minStep {
				minStep = ev.Step
			}
			if ev.Step > maxStep {
				maxStep = ev.Step
			}
			lo := rt.BaseUnixNs + ev.StartNs
			hi := lo + ev.DurNs
			if first || lo < spanLo {
				spanLo = lo
			}
			if first || hi > spanHi {
				spanHi = hi
			}
			first = false
			cells := perPhase[ev.Phase]
			if cells == nil {
				cells = make([]cell, len(sorted))
				perPhase[ev.Phase] = cells
			}
			c := &cells[i]
			c.durs = append(c.durs, ev.DurNs)
			c.total += ev.DurNs
			if ev.DurNs > c.max {
				c.max = ev.DurNs
			}
			if ev.Phase.IsComm() {
				commNs += ev.DurNs
				comm = append(comm, interval{ev.StartNs, ev.StartNs + ev.DurNs})
			} else {
				busy += ev.DurNs
				if ev.Phase == PhaseForward || ev.Phase == PhaseBackward {
					compute = append(compute, interval{ev.StartNs, ev.StartNs + ev.DurNs})
				}
			}
		}
		overlap := intersectLen(mergeIntervals(compute), mergeIntervals(comm))
		sum := RankSummary{
			Rank:      rt.Rank,
			BusyMs:    float64(busy) / 1e6,
			CommMs:    float64(commNs) / 1e6,
			OverlapMs: float64(overlap) / 1e6,
		}
		if commNs > 0 {
			sum.OverlapPct = float64(overlap) / float64(commNs) * 100
		}
		rep.PerRank = append(rep.PerRank, sum)
	}
	if maxStep >= minStep {
		rep.Steps = int(maxStep-minStep) + 1
	}
	for i := range rep.PerRank {
		rep.PerRank[i].Steps = rep.Steps
	}
	if spanHi > spanLo {
		rep.SpanMs = float64(spanHi-spanLo) / 1e6
		rep.SamplesPerSec = float64(rep.Steps*rep.Ranks) / (float64(spanHi-spanLo) / 1e9)
	}

	// Per-phase cells in enum order, only phases that occurred.
	for p := Phase(0); p < NumPhases; p++ {
		cells, ok := perPhase[p]
		if !ok {
			continue
		}
		ps := PhaseStats{Phase: p, Name: p.String(), SlowestRank: -1}
		var sumTotal float64
		var worst int64 = -1
		for i := range cells {
			c := &cells[i]
			st := PhaseRankStat{Rank: sorted[i].Rank, Count: len(c.durs)}
			if len(c.durs) > 0 {
				st.TotalMs = float64(c.total) / 1e6
				st.MeanMs = st.TotalMs / float64(len(c.durs))
				st.MaxMs = float64(c.max) / 1e6
				sort.Slice(c.durs, func(a, b int) bool { return c.durs[a] < c.durs[b] })
				idx := (len(c.durs)*95 + 99) / 100
				if idx > 0 {
					idx--
				}
				st.P95Ms = float64(c.durs[idx]) / 1e6
			}
			sumTotal += st.TotalMs
			if c.total > worst {
				worst = c.total
				ps.SlowestRank = sorted[i].Rank
			}
			ps.Ranks = append(ps.Ranks, st)
		}
		ps.MeanTotalMs = sumTotal / float64(len(cells))
		rep.Phases = append(rep.Phases, ps)
	}

	// Slowest rank: most non-comm busy time (comm time is anti-correlated —
	// fast ranks spend it waiting inside the collective for the straggler).
	var meanBusy float64
	slowest := 0
	for i, s := range rep.PerRank {
		meanBusy += s.BusyMs
		if s.BusyMs > rep.PerRank[slowest].BusyMs {
			slowest = i
		}
	}
	meanBusy /= float64(len(rep.PerRank))
	rep.SlowestRank = rep.PerRank[slowest].Rank
	if meanBusy > 0 {
		rep.SlowestExcessPct = (rep.PerRank[slowest].BusyMs - meanBusy) / meanBusy * 100
	}
	// Attribute it: the non-comm phase where the slowest rank most exceeds
	// the cross-rank mean.
	var bestExcess float64 = math.Inf(-1)
	for _, ps := range rep.Phases {
		if ps.Phase.IsComm() {
			continue
		}
		for _, st := range ps.Ranks {
			if st.Rank == rep.SlowestRank {
				if ex := st.TotalMs - ps.MeanTotalMs; ex > bestExcess {
					bestExcess = ex
					rep.SlowestPhase = ps.Phase
				}
			}
		}
	}
	rep.SlowestPhaseName = rep.SlowestPhase.String()
	return rep
}

// String renders the report as the fixed-width table cosmoflow-tracecat
// prints (and scripts/timeline_smoke.sh greps).
func (r *StragglerReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "training timeline: %d ranks, %d steps, span %.1f ms, %.1f samples/s\n",
		r.Ranks, r.Steps, r.SpanMs, r.SamplesPerSec)
	for rank, n := range r.Dropped {
		fmt.Fprintf(&b, "  warning: rank %d ring overwrote %d events (oldest lost)\n", rank, n)
	}
	b.WriteString("\nper-phase per-rank timings:\n")
	fmt.Fprintf(&b, "  %-14s %4s %6s %9s %9s %9s %10s\n",
		"phase", "rank", "count", "mean ms", "p95 ms", "max ms", "total ms")
	for _, ps := range r.Phases {
		for _, st := range ps.Ranks {
			fmt.Fprintf(&b, "  %-14s %4d %6d %9.3f %9.3f %9.3f %10.3f\n",
				ps.Name, st.Rank, st.Count, st.MeanMs, st.P95Ms, st.MaxMs, st.TotalMs)
		}
		fmt.Fprintf(&b, "  %-14s slowest rank %d (mean-across-ranks total %.3f ms)\n",
			ps.Name, ps.SlowestRank, ps.MeanTotalMs)
	}
	b.WriteString("\nper-rank summary:\n")
	for _, s := range r.PerRank {
		fmt.Fprintf(&b, "  rank %d: busy %.3f ms, comm %.3f ms, overlap %.3f ms (%.1f%% of comm)\n",
			s.Rank, s.BusyMs, s.CommMs, s.OverlapMs, s.OverlapPct)
	}
	if len(r.PerRank) > 0 {
		fmt.Fprintf(&b, "\nslowest rank: %d (busy +%.1f%% vs mean; largest excess: %s)\n",
			r.SlowestRank, r.SlowestExcessPct, r.SlowestPhaseName)
	}
	return b.String()
}
