package comm

import (
	"math"
	"sync"
	"testing"

	"repro/internal/obsv"
)

// Gather must deliver every rank's buffer to the root in rank order, with
// per-rank lengths free to differ (the timeline gather's shape) and the
// payload bits preserved exactly — including NaN patterns, since packed
// binary data rides this collective.
func TestGatherVariableLengths(t *testing.T) {
	const n = 4
	for _, root := range []int{0, 2} {
		w, err := NewWorld(n)
		if err != nil {
			t.Fatal(err)
		}
		locals := [n][]float32{
			{1, 2, 3},
			{},
			{math.Float32frombits(0x7fc00001), 5}, // quiet NaN payload bits
			{6},
		}
		results := make([][][]float32, n)
		var wg sync.WaitGroup
		for r := 0; r < n; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				results[r] = w.Comm(r).Gather(locals[r], root)
			}(r)
		}
		wg.Wait()
		for r := 0; r < n; r++ {
			if r != root {
				if results[r] != nil {
					t.Errorf("root %d: rank %d got non-nil gather result", root, r)
				}
				continue
			}
			got := results[r]
			if len(got) != n {
				t.Fatalf("root %d: gathered %d buffers, want %d", root, len(got), n)
			}
			for src := 0; src < n; src++ {
				if len(got[src]) != len(locals[src]) {
					t.Errorf("root %d: src %d length %d, want %d", root, src, len(got[src]), len(locals[src]))
					continue
				}
				for i := range got[src] {
					if math.Float32bits(got[src][i]) != math.Float32bits(locals[src][i]) {
						t.Errorf("root %d: src %d elem %d bits %#x, want %#x",
							root, src, i, math.Float32bits(got[src][i]), math.Float32bits(locals[src][i]))
					}
				}
			}
		}
	}
}

// Every collective must record exactly one timeline event per call on the
// rank's attached timeline, tagged with the current step.
func TestCollectivesRecordTimelineEvents(t *testing.T) {
	const n = 4
	w, err := NewWorld(n, WithHelpers(2))
	if err != nil {
		t.Fatal(err)
	}
	tls := make([]*obsv.Timeline, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		tls[r] = obsv.NewTimeline(r, 64)
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := w.Comm(r)
			c.SetTimeline(tls[r])
			tls[r].SetStep(3)
			buf := []float32{float32(r), 1, 2, 3}
			c.Broadcast(buf, 0)
			c.AllReduceSum(buf)
			out := make([]float32, n*len(buf))
			c.AllGather(buf, out)
			c.Barrier()
			// Detached: the trailing collective must not be recorded.
			c.SetTimeline(nil)
			c.Barrier()
		}(r)
	}
	wg.Wait()
	for r := 0; r < n; r++ {
		rt := tls[r].Snapshot()
		counts := map[obsv.Phase]int{}
		for _, ev := range rt.Events {
			counts[ev.Phase]++
			if ev.Step != 3 {
				t.Errorf("rank %d: event step %d, want 3", r, ev.Step)
			}
			if ev.DurNs < 0 {
				t.Errorf("rank %d: negative duration %d", r, ev.DurNs)
			}
		}
		want := map[obsv.Phase]int{
			obsv.PhaseBroadcast: 1,
			obsv.PhaseAllReduce: 1,
			obsv.PhaseAllGather: 1,
			obsv.PhaseBarrier:   1,
		}
		for p, c := range want {
			if counts[p] != c {
				t.Errorf("rank %d: %s events = %d, want %d (all: %v)", r, p, counts[p], c, counts)
			}
		}
		if rt.Rank != r {
			t.Errorf("snapshot rank = %d, want %d", rt.Rank, r)
		}
	}
}
