package dist

import (
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/obsv"
)

// A per-process timeline attached to the joined rank's communicator must
// record the local rank's collectives over the real TCP mesh, and the encoded timelines must
// gather to rank 0 bit-exact through the CFT1 framing — packed binary event
// data riding []float32 frames, NaN bit patterns and all.
func TestTimelineOverTCPGathersToRankZero(t *testing.T) {
	const n = 3
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tls := make([]*obsv.Timeline, n)
	for i := range tls {
		tls[i] = obsv.NewTimeline(i, 128)
	}
	worlds := make([]*World, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		cfg := Config{
			Size:        n,
			Rendezvous:  ln.Addr().String(),
			JoinTimeout: 10 * time.Second,
			Rank:        i,
		}
		if i == 0 {
			cfg.RendezvousListener = ln
		}
		wg.Add(1)
		go func(i int, cfg Config) {
			defer wg.Done()
			w, err := Join(cfg)
			if err != nil {
				errs[i] = err
				return
			}
			worlds[w.Rank()] = w
		}(i, cfg)
	}
	wg.Wait()
	noErrors(t, errs)
	defer closeAll(t, worlds)

	var gathered [][]float32
	noErrors(t, runRanks(worlds, func(w *World) {
		c := w.Comm()
		c.SetTimeline(tls[w.Rank()])
		tls[w.Rank()].SetStep(7)
		buf := []float32{float32(w.Rank()), 1}
		c.AllReduceSum(buf)
		c.Barrier()
		// Detach before gathering so the gather traffic is not recorded,
		// then ship each rank's encoded ring to rank 0 — the train loop's
		// end-of-run sequence.
		c.SetTimeline(nil)
		parts := c.Gather(obsv.EncodeTimeline(tls[w.Rank()].Snapshot()), 0)
		if w.Rank() == 0 {
			gathered = parts
		}
	}))

	if len(gathered) != n {
		t.Fatalf("gathered %d payloads, want %d", len(gathered), n)
	}
	for r, part := range gathered {
		rt, err := obsv.DecodeTimeline(part)
		if err != nil {
			t.Fatalf("rank %d payload: %v", r, err)
		}
		if rt.Rank != r {
			t.Errorf("payload %d decodes to rank %d", r, rt.Rank)
		}
		counts := map[obsv.Phase]int{}
		for _, ev := range rt.Events {
			counts[ev.Phase]++
			if ev.Step != 7 {
				t.Errorf("rank %d: step %d, want 7", r, ev.Step)
			}
		}
		if counts[obsv.PhaseAllReduce] != 1 || counts[obsv.PhaseBarrier] != 1 {
			t.Errorf("rank %d: phase counts %v, want one allreduce + one barrier", r, counts)
		}
		// The decoded events must match the local ring bit-for-bit.
		local := tls[r].Snapshot()
		if len(local.Events) != len(rt.Events) {
			t.Fatalf("rank %d: %d gathered events, %d local", r, len(rt.Events), len(local.Events))
		}
		for i := range local.Events {
			if local.Events[i] != rt.Events[i] {
				t.Errorf("rank %d event %d: gathered %+v, local %+v", r, i, rt.Events[i], local.Events[i])
			}
		}
	}

	// Adversarial payload: raw NaN/Inf bit patterns must cross the wire
	// unchanged (the property the packed timeline encoding relies on).
	nasty := []float32{
		math.Float32frombits(0x7fc00001), // quiet NaN with payload
		math.Float32frombits(0xff800000), // -Inf
		math.Float32frombits(0x7f800001), // signaling NaN
		math.Float32frombits(0x00000001), // subnormal
	}
	var got [][]float32
	noErrors(t, runRanks(worlds, func(w *World) {
		parts := w.Comm().Gather(nasty, 0)
		if w.Rank() == 0 {
			got = parts
		}
	}))
	for r, part := range got {
		for i := range nasty {
			if math.Float32bits(part[i]) != math.Float32bits(nasty[i]) {
				t.Errorf("rank %d elem %d: bits %#x, want %#x",
					r, i, math.Float32bits(part[i]), math.Float32bits(nasty[i]))
			}
		}
	}
}
