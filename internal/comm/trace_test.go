package comm

import (
	"sync"
	"testing"

	"repro/internal/obsv"
)

// TestTimelinePhasesCountCollectives: every timed collective lands exactly
// one observation per call in its rank timeline's phase span, and the
// convenience reductions (mean, scalar) count once — in allreduce — not
// twice. Summed across ranks, the counts are what a world-wide recorder
// would have seen.
func TestTimelinePhasesCountCollectives(t *testing.T) {
	const n = 4
	w, err := NewWorld(n)
	if err != nil {
		t.Fatal(err)
	}
	tls := make([]*obsv.Timeline, n)
	const iters = 3
	var wg sync.WaitGroup
	for _, c := range w.Comms() {
		tls[c.Rank()] = obsv.NewTimeline(c.Rank(), 0)
		c.SetTimeline(tls[c.Rank()])
		wg.Add(1)
		go func(c *Comm) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				buf := []float32{float32(c.Rank()), 1, 2, 3}
				c.AllReduceSum(buf)
				c.AllReduceMean(buf)
				_ = c.AllReduceScalar(1)
				c.Broadcast(buf, 0)
				rs := make([]float32, n*2)
				c.ReduceScatterSum(rs)
				local := []float32{float32(c.Rank())}
				out := make([]float32, n)
				c.AllGather(local, out)
				c.Barrier()
			}
		}(c)
	}
	wg.Wait()

	counts := map[string]int64{}
	for _, tl := range tls {
		for _, st := range tl.Phases().Snapshot() {
			counts[st.Name] += st.Count
		}
	}
	// Per rank and iteration: AllReduceSum + AllReduceMean + AllReduceScalar
	// all funnel through the one timed allreduce.
	want := map[string]int64{
		"allreduce":      n * iters * 3,
		"broadcast":      n * iters,
		"reduce_scatter": n * iters,
		"allgather":      n * iters,
		"barrier":        n * iters,
	}
	for name, c := range counts {
		if c != want[name] {
			t.Errorf("phase %q count = %d, want %d", name, c, want[name])
		}
	}
}
