package nn

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/tensor"
)

func testNet(t testing.TB) *Network {
	t.Helper()
	net, err := BuildCosmoFlow(TopologyConfig{InputDim: 8, BaseChannels: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func randInput(net *Network, seed int64) *tensor.Tensor {
	x := tensor.New(net.InputShape()...)
	x.RandNormal(rand.New(rand.NewSource(seed)), 0, 1)
	return x
}

// TestInferMatchesForward checks the inference-only pass at B=1 is
// bit-identical to Forward on the CosmoFlow topology.
func TestInferMatchesForward(t *testing.T) {
	net := testNet(t)
	x := randInput(net, 2)
	want := net.Forward(x.Clone()).Data()
	got := net.InferBatch([]*tensor.Tensor{x})[0].Data()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("InferBatch[%d] = %v, Forward = %v", i, got[i], want[i])
		}
	}
}

// TestCloneSharesParams checks replicas alias the original parameter
// tensors instead of copying 28 MB of weights per worker.
func TestCloneSharesParams(t *testing.T) {
	net := testNet(t)
	rep := net.Clone(nil)
	op, rp := net.Params(), rep.Params()
	if len(op) != len(rp) {
		t.Fatalf("clone has %d params, original %d", len(rp), len(op))
	}
	for i := range op {
		if op[i] != rp[i] {
			t.Errorf("param %d (%s) not shared", i, op[i].Name)
		}
	}
	if rep.ParamCount() != net.ParamCount() {
		t.Errorf("clone ParamCount %d != %d", rep.ParamCount(), net.ParamCount())
	}
}

// TestCloneInferConcurrent runs many replicas in parallel (exercised under
// -race) and checks each produces bit-identical output to the original's
// sequential Forward on the same input.
func TestCloneInferConcurrent(t *testing.T) {
	net := testNet(t)
	const workers = 8
	const perWorker = 4

	// Sequential reference on the original network.
	want := make([][][]float32, workers)
	for w := 0; w < workers; w++ {
		want[w] = make([][]float32, perWorker)
		for i := 0; i < perWorker; i++ {
			x := randInput(net, int64(100*w+i))
			want[w][i] = append([]float32(nil), net.Forward(x).Data()...)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		rep := net.Clone(nil)
		wg.Add(1)
		go func(w int, rep *Network) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				x := randInput(rep, int64(100*w+i))
				got := rep.InferBatch([]*tensor.Tensor{x})[0].Data()
				for j := range got {
					if got[j] != want[w][i][j] {
						errs <- "replica output diverged from sequential Forward"
						return
					}
				}
			}
		}(w, rep)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestCloneLeavesOriginalTrainable checks that running replicas does not
// disturb the original's forward/backward state.
func TestCloneLeavesOriginalTrainable(t *testing.T) {
	net := testNet(t)
	x := randInput(net, 3)
	y := net.Forward(x)

	rep := net.Clone(nil)
	rep.InferBatch([]*tensor.Tensor{randInput(net, 4)})

	// Backward on the original must still see its cached activations.
	dy := tensor.New(y.Shape()...)
	dy.Fill(1)
	net.Backward(dy) // panics if replica execution clobbered the caches
}
