package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/obsv"
	"repro/internal/parallel"
)

// TestTracedInferBitIdentical: attaching a trace must never change what the
// network computes — it only adds clock reads around the one layer loop.
func TestTracedInferBitIdentical(t *testing.T) {
	pool := parallel.NewPool(1)
	net := allLayerNet(t, pool, 17)
	xs := randBatch(net.InputShape(), 4, 71)

	want := make([][]float32, len(xs))
	for i, x := range xs {
		want[i] = append([]float32(nil), net.Forward(x).Data()...)
	}

	net.SetTrace(obsv.NewForwardTrace(net.LayerNames()))
	for i := range xs {
		requireBits(t, fmt.Sprintf("traced B=1 sample %d", i), net.InferBatch(xs[i : i+1])[0].Data(), want[i])
	}
	for i, y := range net.InferBatch(xs) {
		requireBits(t, fmt.Sprintf("traced B=%d sample %d", len(xs), i), y.Data(), want[i])
	}
}

// TestTraceLayerSumsMatchForward is the per-layer timing acceptance
// criterion: across batches of one and six, the layer spans must account
// for the whole forward — their totals sum to within 10% of the forward
// span.
func TestTraceLayerSumsMatchForward(t *testing.T) {
	pool := parallel.NewPool(1)
	net := allLayerNet(t, pool, 19)
	tr := obsv.NewForwardTrace(net.LayerNames())
	net.SetTrace(tr)

	xs := randBatch(net.InputShape(), 6, 73)
	for i := 0; i < 4; i++ {
		net.InferBatch(xs[:1])
		net.InferBatch(xs)
	}

	fwd, layers := tr.Snapshot()
	if fwd.Count != 4+4 { // 4 passes at B=1 + 4 at B=6
		t.Fatalf("forward count = %d, want 8", fwd.Count)
	}
	var layerSum float64
	for _, st := range layers {
		if st.Count != fwd.Count {
			t.Errorf("layer %s count = %d, want %d", st.Name, st.Count, fwd.Count)
		}
		layerSum += st.TotalMs
	}
	if fwd.TotalMs <= 0 {
		t.Fatal("forward span recorded no time")
	}
	if rel := math.Abs(layerSum-fwd.TotalMs) / fwd.TotalMs; rel > 0.10 {
		t.Errorf("per-layer totals sum %.3fms vs forward %.3fms: off by %.1f%% (>10%%)",
			layerSum, fwd.TotalMs, rel*100)
	}
}

// Clone replicas inherit their base's trace pointer, so one snapshot
// aggregates the pool; detaching on the base does not affect live clones.
func TestTraceSharedAcrossClones(t *testing.T) {
	pool := parallel.NewPool(1)
	net := allLayerNet(t, pool, 23)
	tr := obsv.NewForwardTrace(net.LayerNames())
	net.SetTrace(tr)

	clone := net.Clone(nil)
	if clone.Trace() != tr {
		t.Fatal("Clone did not inherit the trace pointer")
	}
	xs := randBatch(net.InputShape(), 1, 79)
	net.InferBatch(xs)
	clone.InferBatch(xs)
	if fwd, _ := tr.Snapshot(); fwd.Count != 2 {
		t.Errorf("forward count = %d, want 2 (base + clone aggregate)", fwd.Count)
	}
}

func TestSetTraceLayerCountMismatchPanics(t *testing.T) {
	pool := parallel.NewPool(1)
	net := allLayerNet(t, pool, 29)
	defer func() {
		if recover() == nil {
			t.Fatal("SetTrace with wrong span count did not panic")
		}
	}()
	net.SetTrace(obsv.NewForwardTrace([]string{"just-one"}))
}
