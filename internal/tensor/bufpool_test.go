package tensor

import "testing"

// TestBufPoolRecycles checks Get/Put round-trips reuse exact-size buffers
// and never hand out a wrong length.
func TestBufPoolRecycles(t *testing.T) {
	p := NewBufPool()
	a := p.Get(64)
	if len(a) != 64 {
		t.Fatalf("Get(64) returned len %d", len(a))
	}
	a[0] = 42
	p.Put(a)
	b := p.Get(64)
	if &b[0] != &a[0] {
		t.Error("same-size Get after Put did not recycle the buffer")
	}
	// Contents are unspecified; the contract is only the length.
	if c := p.Get(64); len(c) != 64 {
		t.Fatalf("empty-bucket Get(64) returned len %d", len(c))
	}
	if d := p.Get(128); len(d) != 128 {
		t.Fatalf("Get(128) returned len %d", len(d))
	}
	if p.Get(0) != nil {
		t.Error("Get(0) should be nil")
	}
	p.Put(nil) // must not panic

	var none *BufPool // pools nothing
	if e := none.Get(8); len(e) != 8 {
		t.Fatalf("nil pool Get(8) returned len %d", len(e))
	}
	none.Put(make([]float32, 8)) // must not panic
}
