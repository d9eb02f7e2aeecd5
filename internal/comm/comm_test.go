package comm

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// runWorld executes fn concurrently on every rank and waits for all.
func runWorld(t *testing.T, w *World, fn func(c *Comm)) {
	t.Helper()
	var wg sync.WaitGroup
	for _, c := range w.Comms() {
		wg.Add(1)
		go func(c *Comm) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// expectedSum computes the sequential element-wise sum of per-rank inputs.
func expectedSum(inputs [][]float32) []float64 {
	out := make([]float64, len(inputs[0]))
	for _, in := range inputs {
		for i, v := range in {
			out[i] += float64(v)
		}
	}
	return out
}

// randomInputs draws n ranks' buffers of size normal floats, seeded by
// (n, size).
func randomInputs(n, size int) [][]float32 {
	rng := rand.New(rand.NewSource(int64(n*1000 + size)))
	inputs := make([][]float32, n)
	for r := range inputs {
		inputs[r] = make([]float32, size)
		for i := range inputs[r] {
			inputs[r][i] = float32(rng.NormFloat64())
		}
	}
	return inputs
}

// clones copies every rank's buffer.
func clones(inputs [][]float32) [][]float32 {
	out := make([][]float32, len(inputs))
	for r, in := range inputs {
		out[r] = append([]float32(nil), in...)
	}
	return out
}

func testAllReduce(t *testing.T, n, size int) {
	t.Helper()
	w, err := NewWorld(n)
	if err != nil {
		t.Fatal(err)
	}
	inputs := randomInputs(n, size)
	bufs := clones(inputs)
	runWorld(t, w, func(c *Comm) { c.AllReduceSum(bufs[c.Rank()]) })
	want := expectedSum(inputs)
	for r := 0; r < n; r++ {
		for i := range want {
			if math.Abs(float64(bufs[r][i])-want[i]) > 1e-4*(1+math.Abs(want[i])) {
				t.Fatalf("n=%d size=%d: rank %d elem %d = %v, want %v",
					n, size, r, i, bufs[r][i], want[i])
			}
		}
	}
}

// TestAllReduceSumAllAlgorithms checks the ring, the one allreduce, against
// a float64 sum over world sizes with uneven and empty segments.
func TestAllReduceSumAllAlgorithms(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8, 16} {
		// 1 and n−1 elements leave ring segments of 0 and 1
		// elements; an odd 37 exercises uneven segment remainders.
		for _, size := range []int{1, n - 1, 37} {
			testAllReduce(t, n, size)
		}
	}
}

func TestAllReduceLargeBuffer(t *testing.T) {
	testAllReduce(t, 8, 100_000)
}

func TestAllReduceTinyBufferFewerElementsThanRanks(t *testing.T) {
	testAllReduce(t, 8, 3)
}

func TestAllReduceMean(t *testing.T) {
	n := 4
	w, _ := NewWorld(n)
	bufs := make([][]float32, n)
	for r := range bufs {
		bufs[r] = []float32{float32(r), 1}
	}
	runWorld(t, w, func(c *Comm) { c.AllReduceMean(bufs[c.Rank()]) })
	for r := 0; r < n; r++ {
		if math.Abs(float64(bufs[r][0])-1.5) > 1e-6 || math.Abs(float64(bufs[r][1])-1) > 1e-6 {
			t.Fatalf("rank %d mean = %v, want [1.5 1]", r, bufs[r])
		}
	}
}

func TestAllReduceScalar(t *testing.T) {
	n := 5
	w, _ := NewWorld(n)
	results := make([]float64, n)
	runWorld(t, w, func(c *Comm) {
		results[c.Rank()] = c.AllReduceScalar(float64(c.Rank() + 1))
	})
	for r, got := range results {
		if math.Abs(got-15) > 1e-4 {
			t.Fatalf("rank %d scalar sum = %v, want 15", r, got)
		}
	}
}

func TestBroadcastFromEveryRoot(t *testing.T) {
	n := 6
	for root := 0; root < n; root++ {
		w, _ := NewWorld(n)
		bufs := make([][]float32, n)
		for r := range bufs {
			bufs[r] = make([]float32, 10)
			if r == root {
				for i := range bufs[r] {
					bufs[r][i] = float32(100*root + i)
				}
			}
		}
		runWorld(t, w, func(c *Comm) { c.Broadcast(bufs[c.Rank()], root) })
		for r := 0; r < n; r++ {
			for i := range bufs[r] {
				if bufs[r][i] != float32(100*root+i) {
					t.Fatalf("root=%d rank=%d elem %d = %v", root, r, i, bufs[r][i])
				}
			}
		}
	}
}

func TestBarrierOrdering(t *testing.T) {
	n := 8
	w, _ := NewWorld(n)
	var before, after atomic.Int32
	runWorld(t, w, func(c *Comm) {
		before.Add(1)
		c.Barrier()
		// Every rank must have incremented before any rank proceeds.
		if got := before.Load(); got != int32(n) {
			t.Errorf("rank %d passed barrier with only %d/%d arrivals", c.Rank(), got, n)
		}
		after.Add(1)
	})
	if after.Load() != int32(n) {
		t.Fatal("not all ranks exited the barrier")
	}
}

func TestSingleRankCollectivesAreNoOps(t *testing.T) {
	w, _ := NewWorld(1)
	c := w.Comm(0)
	buf := []float32{1, 2, 3}
	c.AllReduceSum(buf)
	c.Broadcast(buf, 0)
	c.Barrier()
	if buf[0] != 1 || buf[2] != 3 {
		t.Error("single-rank collectives must not modify data")
	}
}

func TestWorldValidation(t *testing.T) {
	if _, err := NewWorld(0); err == nil {
		t.Error("zero-size world accepted")
	}
	w, _ := NewWorld(2)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range Comm() did not panic")
		}
	}()
	w.Comm(5)
}

func TestRingBandwidthFactor(t *testing.T) {
	// The ring algorithm moves 2·(n−1)/n of the buffer per rank — the
	// factor the paper's §VI-B analysis ("twice the message length")
	// relies on for large n.
	n, size := 8, 8000
	w, _ := NewWorld(n)
	bufs := make([][]float32, n)
	for r := range bufs {
		bufs[r] = make([]float32, size)
	}
	runWorld(t, w, func(c *Comm) { c.AllReduceSum(bufs[c.Rank()]) })
	perRank := float64(w.BytesSent()) / float64(n)
	want := 2 * float64(n-1) / float64(n) * float64(4*size)
	if math.Abs(perRank-want)/want > 0.01 {
		t.Errorf("ring bytes/rank = %v, want %v", perRank, want)
	}
}

func TestAllReduceDeterministicGivenAlgorithm(t *testing.T) {
	// The ring algorithm applies additions in a fixed order, so repeated
	// runs give bit-identical results (important for reproducible SSGD).
	run := func() []float32 {
		n := 4
		w, _ := NewWorld(n)
		rng := rand.New(rand.NewSource(5))
		bufs := make([][]float32, n)
		for r := range bufs {
			bufs[r] = make([]float32, 33)
			for i := range bufs[r] {
				bufs[r][i] = float32(rng.NormFloat64())
			}
		}
		runWorld(t, w, func(c *Comm) { c.AllReduceSum(bufs[c.Rank()]) })
		return bufs[0]
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("ring allreduce not deterministic")
		}
	}
}

// TestInProcessAllReduceReusesMessages runs a 2-rank in-process ring
// AllReduceSum of 1 Mi floats repeatedly on the same inputs. Copying every
// message afresh would allocate 8 MB per call; with released slices reused
// for later sends, a call after warm-up must allocate under 1 MB, and every
// call must give the bits of the first, whose messages were all new.
func TestInProcessAllReduceReusesMessages(t *testing.T) {
	const n, size, calls = 2, 1 << 20, 4
	w, err := NewWorld(n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(67))
	inputs, bufs := make([][]float32, n), make([][]float32, n)
	for r := range inputs {
		inputs[r] = make([]float32, size)
		for i := range inputs[r] {
			inputs[r][i] = float32(rng.NormFloat64())
		}
		bufs[r] = make([]float32, size)
	}
	call := func() {
		for r := range bufs {
			copy(bufs[r], inputs[r])
		}
		runWorld(t, w, func(c *Comm) { c.AllReduceSum(bufs[c.Rank()]) })
	}
	call()
	want := append([]float32(nil), bufs[0]...)
	call() // warm-up: the free lists fill
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		call()
		for r := range bufs {
			for j, v := range bufs[r] {
				if math.Float32bits(v) != math.Float32bits(want[j]) {
					t.Fatalf("call %d rank %d elem %d = %v, first call %v", i, r, j, v, want[j])
				}
			}
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 1<<20 {
		t.Errorf("AllReduceSum allocates %d B per call after warm-up, want < 1 MB", per)
	}
}

func TestReduceScatterSum(t *testing.T) {
	n, size := 4, 32
	w, _ := NewWorld(n)
	bufs := make([][]float32, n)
	inputs := make([][]float32, n)
	for r := range bufs {
		bufs[r] = make([]float32, size)
		for i := range bufs[r] {
			bufs[r][i] = float32(r*size + i)
		}
		inputs[r] = append([]float32(nil), bufs[r]...)
	}
	los := make([]int, n)
	his := make([]int, n)
	runWorld(t, w, func(c *Comm) {
		los[c.Rank()], his[c.Rank()] = c.ReduceScatterSum(bufs[c.Rank()])
	})
	want := expectedSum(inputs)
	covered := make([]bool, size)
	for r := 0; r < n; r++ {
		for i := los[r]; i < his[r]; i++ {
			if covered[i] {
				t.Fatalf("element %d owned by two ranks", i)
			}
			covered[i] = true
			if math.Abs(float64(bufs[r][i])-want[i]) > 1e-3 {
				t.Fatalf("rank %d segment elem %d = %v, want %v", r, i, bufs[r][i], want[i])
			}
		}
	}
	for i, c := range covered {
		if !c {
			t.Fatalf("element %d owned by no rank", i)
		}
	}
}

// TestReduceScatterSumMatchesAllReduceSum pins the one ring reduce-scatter
// both collectives run: on the same inputs, the segment ReduceScatterSum
// owns is bit-equal to the same segment of AllReduceSum's result, and the
// owned segments cover the buffer once. Sizes 1 and n−1 give segments of 0
// and 1 elements.
func TestReduceScatterSumMatchesAllReduceSum(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8} {
		for _, size := range []int{1, n - 1, 37} {
			inputs := randomInputs(n, size)
			sums, scattered := clones(inputs), clones(inputs)
			w, _ := NewWorld(n)
			runWorld(t, w, func(c *Comm) { c.AllReduceSum(sums[c.Rank()]) })
			los, his := make([]int, n), make([]int, n)
			w, _ = NewWorld(n)
			runWorld(t, w, func(c *Comm) {
				los[c.Rank()], his[c.Rank()] = c.ReduceScatterSum(scattered[c.Rank()])
			})
			owner := make([]int, size)
			for i := range owner {
				owner[i] = -1
			}
			for r := 0; r < n; r++ {
				if los[r] < 0 || los[r] > his[r] || his[r] > size {
					t.Fatalf("n=%d size=%d: rank %d owns [%d, %d)", n, size, r, los[r], his[r])
				}
				for i := los[r]; i < his[r]; i++ {
					if owner[i] >= 0 {
						t.Fatalf("n=%d size=%d: element %d owned by ranks %d and %d", n, size, i, owner[i], r)
					}
					owner[i] = r
					if got, want := scattered[r][i], sums[r][i]; math.Float32bits(got) != math.Float32bits(want) {
						t.Fatalf("n=%d size=%d: rank %d ReduceScatterSum[%d] = %v, AllReduceSum %v",
							n, size, r, i, got, want)
					}
				}
			}
			for i, r := range owner {
				if r < 0 {
					t.Fatalf("n=%d size=%d: element %d owned by no rank", n, size, i)
				}
			}
		}
	}
}

func TestAllGather(t *testing.T) {
	n, block := 5, 7
	w, _ := NewWorld(n)
	outs := make([][]float32, n)
	runWorld(t, w, func(c *Comm) {
		local := make([]float32, block)
		for i := range local {
			local[i] = float32(c.Rank()*100 + i)
		}
		out := make([]float32, n*block)
		c.AllGather(local, out)
		outs[c.Rank()] = out
	})
	for r := 0; r < n; r++ {
		for src := 0; src < n; src++ {
			for i := 0; i < block; i++ {
				want := float32(src*100 + i)
				if outs[r][src*block+i] != want {
					t.Fatalf("rank %d block %d elem %d = %v, want %v",
						r, src, i, outs[r][src*block+i], want)
				}
			}
		}
	}
}

func TestAllGatherSingleRank(t *testing.T) {
	w, _ := NewWorld(1)
	c := w.Comm(0)
	out := make([]float32, 3)
	c.AllGather([]float32{1, 2, 3}, out)
	if out[0] != 1 || out[2] != 3 {
		t.Error("single-rank allgather wrong")
	}
}

func TestAllGatherLengthMismatchPanics(t *testing.T) {
	w, _ := NewWorld(2)
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	w.Comm(0).AllGather(make([]float32, 4), make([]float32, 5))
}
