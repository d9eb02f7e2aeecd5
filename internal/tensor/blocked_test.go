package tensor

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// smallFloatSlices generates bounded random float32 slices for quick tests,
// avoiding the huge magnitudes quick's default generator produces (which
// overflow float32 accumulation and test nothing useful).
func smallFloatSlices(maxLen int) func([]reflect.Value, *rand.Rand) {
	return func(vals []reflect.Value, rng *rand.Rand) {
		for i := range vals {
			n := rng.Intn(maxLen + 1)
			s := make([]float32, n)
			for j := range s {
				s[j] = float32(rng.NormFloat64())
			}
			vals[i] = reflect.ValueOf(s)
		}
	}
}

// newBlocked allocates a zeroed blocked volume for c channels over a
// d×h×w grid.
func newBlocked(c, d, h, w int) *Blocked {
	cb := (c + BlockSize - 1) / BlockSize
	return WrapBlocked(make([]float32, cb*d*h*w*BlockSize), c, d, h, w)
}

// toBlocked converts a CDHW tensor into a fresh blocked volume.
func toBlocked(a *Tensor) *Blocked {
	s := a.Shape()
	b := newBlocked(s[0], s[1], s[2], s[3])
	ToBlockedInto(a, b)
	return b
}

// fromBlocked converts a blocked volume into a fresh CDHW tensor.
func fromBlocked(b *Blocked) *Tensor {
	t := New(b.C, b.D, b.H, b.W)
	FromBlockedInto(b, t)
	return t
}

func TestBlockedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, c := range []int{1, 3, 16, 17, 32, 48} {
		a := New(c, 3, 4, 5)
		a.RandNormal(rng, 0, 1)
		b := toBlocked(a)
		back := fromBlocked(b)
		if !back.Shape().Equal(a.Shape()) {
			t.Fatalf("c=%d: shape %v != %v", c, back.Shape(), a.Shape())
		}
		if MaxAbsDiff(back.Data(), a.Data()) != 0 {
			t.Errorf("c=%d: blocked round trip not exact", c)
		}
	}
}

func TestBlockedIndexConsistency(t *testing.T) {
	b := newBlocked(20, 2, 3, 4)
	b.Set(5, 17, 1, 2, 3)
	if b.At(17, 1, 2, 3) != 5 {
		t.Error("At/Set inconsistent")
	}
	// Channel 17 lives in block 1, lane 1.
	want := (((1*2+1)*3+2)*4+3)*BlockSize + 1
	if got := b.Index(17, 1, 2, 3); got != want {
		t.Errorf("Index = %d, want %d", got, want)
	}
}

func TestBlockedPaddingIsZero(t *testing.T) {
	a := New(17, 2, 2, 2)
	a.Fill(1)
	b := toBlocked(a)
	// Channels 17..31 within block 1 must stay zero padding: the converter
	// writes only the real channel lanes.
	for ch := 17; ch < 32; ch++ {
		cb, ci := ch/BlockSize, ch%BlockSize
		off := (((cb*2+0)*2+0)*2+0)*BlockSize + ci
		if b.Data[off] != 0 {
			t.Fatalf("padding channel %d not zero", ch)
		}
	}
}

func TestPackWeightsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, dims := range [][2]int{{1, 16}, {16, 16}, {16, 32}, {3, 5}, {20, 40}} {
		w := New(dims[1], dims[0], 3, 3, 3) // OC, IC, k³
		w.RandNormal(rng, 0, 1)
		bw := PackWeights(w)
		back := UnpackWeights(bw)
		if MaxAbsDiff(back.Data(), w.Data()) != 0 {
			t.Errorf("ic=%d oc=%d: weight pack round trip not exact", dims[0], dims[1])
		}
	}
}

func TestBlockedWeightsIndex(t *testing.T) {
	bw := NewBlockedWeights(32, 16, 3, 3, 3)
	if bw.OCB != 2 || bw.ICB != 1 {
		t.Fatalf("OCB/ICB = %d/%d, want 2/1", bw.OCB, bw.ICB)
	}
	// All indices must be unique and in range.
	seen := make(map[int]bool)
	for oc := 0; oc < 32; oc++ {
		for ic := 0; ic < 16; ic++ {
			for k := 0; k < 27; k++ {
				idx := bw.Index(oc, ic, k/9, (k/3)%3, k%3)
				if idx < 0 || idx >= len(bw.Data) {
					t.Fatalf("index out of range: %d", idx)
				}
				if seen[idx] {
					t.Fatalf("duplicate index %d", idx)
				}
				seen[idx] = true
			}
		}
	}
}

func TestBlockedRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := 1 + rng.Intn(40)
		d, h, w := 1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(4)
		a := New(c, d, h, w)
		a.RandNormal(rng, 0, 1)
		back := fromBlocked(toBlocked(a))
		return MaxAbsDiff(back.Data(), a.Data()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
