package tensor

import (
	"math/rand"
	"testing"
)

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

// TestWrapBlockedValidates checks the no-copy constructor enforces the
// blocked length and shares the backing slice.
func TestWrapBlockedValidates(t *testing.T) {
	data := make([]float32, 2*3*4*5*BlockSize) // c=32 -> 2 channel blocks
	b := WrapBlocked(data, 32, 3, 4, 5)
	if b.CB != 2 || b.C != 32 {
		t.Fatalf("WrapBlocked dims: %+v", b)
	}
	b.Set(7, 17, 1, 2, 3)
	if data[b.Index(17, 1, 2, 3)] != 7 {
		t.Error("WrapBlocked does not share backing data")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	WrapBlocked(data[:10], 32, 3, 4, 5)
}

// TestBlockedIntoMatchesAllocating checks the Into converters produce the
// same layouts over recycled (dirty) buffers as over freshly allocated ones.
func TestBlockedIntoMatchesAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := New(32, 2, 3, 7)
	x.RandNormal(rng, 0, 1)

	want := toBlocked(x)
	got := newBlocked(32, 2, 3, 7)
	// Dirty the destination: c=32 has no padding lanes, so the converter
	// must overwrite every element (the recycled-buffer contract).
	for i := range got.Data {
		got.Data[i] = -1
	}
	ToBlockedInto(x, got)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("ToBlockedInto[%d] = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}

	back := New(32, 2, 3, 7)
	back.Fill(-1)
	FromBlockedInto(got, back)
	for i, v := range back.Data() {
		if v != x.Data()[i] {
			t.Fatalf("roundtrip[%d] = %v, want %v", i, v, x.Data()[i])
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	FromBlockedInto(got, New(16, 2, 3, 7))
}
