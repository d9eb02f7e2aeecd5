package obsv

import (
	"sync"
	"testing"
	"time"
)

func TestSpanObserveAndStat(t *testing.T) {
	s := NewSpan("fwd")
	s.Observe(2 * time.Millisecond)
	s.Observe(4 * time.Millisecond)
	s.Observe(-time.Millisecond) // clamped to zero, still counted

	st := s.Stat()
	if st.Name != "fwd" {
		t.Errorf("Name = %q, want fwd", st.Name)
	}
	if st.Count != 3 {
		t.Errorf("Count = %d, want 3", st.Count)
	}
	if st.TotalMs != 6 {
		t.Errorf("TotalMs = %v, want 6", st.TotalMs)
	}
	if st.MaxMs != 4 {
		t.Errorf("MaxMs = %v, want 4", st.MaxMs)
	}
	if st.AvgMs != 2 {
		t.Errorf("AvgMs = %v, want 2", st.AvgMs)
	}
}

// Replicas share their model's spans, so Observe must hold up under
// concurrent writers without losing counts.
func TestSpanConcurrentObserve(t *testing.T) {
	s := NewSpan("shared")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.Observe(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := s.Stat().Count; got != workers*per {
		t.Errorf("Count = %d, want %d", got, workers*per)
	}
}

func TestRecorderSpanIdentityAndOrder(t *testing.T) {
	r := NewRecorder()
	a := r.Span("allreduce")
	b := r.Span("broadcast")
	if r.Span("allreduce") != a {
		t.Fatal("second Span(allreduce) returned a different span")
	}
	a.Observe(time.Millisecond)
	a.Observe(time.Millisecond)
	b.Observe(3 * time.Millisecond)

	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("Snapshot len = %d, want 2", len(snap))
	}
	// Creation order, not alphabetical.
	if snap[0].Name != "allreduce" || snap[1].Name != "broadcast" {
		t.Errorf("order = %q,%q, want allreduce,broadcast", snap[0].Name, snap[1].Name)
	}
	if snap[0].Count != 2 || snap[1].Count != 1 {
		t.Errorf("counts = %d,%d, want 2,1", snap[0].Count, snap[1].Count)
	}
}

func TestForwardTraceSnapshotAndReset(t *testing.T) {
	tr := NewForwardTrace([]string{"conv1", "pool1"})
	tr.Layers[0].Observe(2 * time.Millisecond)
	tr.Layers[1].Observe(1 * time.Millisecond)
	tr.Forward.Observe(3 * time.Millisecond)

	fwd, layers := tr.Snapshot()
	if fwd.Name != "forward" || fwd.TotalMs != 3 {
		t.Errorf("forward = %+v, want name=forward total=3", fwd)
	}
	if len(layers) != 2 || layers[0].Name != "conv1" || layers[1].Name != "pool1" {
		t.Fatalf("layers = %+v, want conv1,pool1", layers)
	}
	if layers[0].TotalMs != 2 || layers[1].TotalMs != 1 {
		t.Errorf("layer totals = %v,%v, want 2,1", layers[0].TotalMs, layers[1].TotalMs)
	}
}

func TestRequestLogRingEviction(t *testing.T) {
	l := NewRequestLog(3)
	if got := l.Snapshot(0); len(got) != 0 {
		t.Fatalf("empty log Snapshot = %v, want empty", got)
	}
	for _, id := range []string{"a", "b", "c", "d", "e"} {
		l.Add(RequestTrace{RequestID: id, TotalMs: 1})
	}
	got := l.Snapshot(0)
	if len(got) != 3 {
		t.Fatalf("Snapshot len = %d, want 3 (ring size)", len(got))
	}
	// Most recent first; "a" and "b" evicted.
	want := []string{"e", "d", "c"}
	for i, w := range want {
		if got[i].RequestID != w {
			t.Errorf("Snapshot[%d] = %q, want %q", i, got[i].RequestID, w)
		}
	}
	if got := l.Snapshot(2); len(got) != 2 || got[0].RequestID != "e" {
		t.Errorf("Snapshot(2) = %+v, want [e d]", got)
	}
}
