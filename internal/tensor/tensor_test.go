package tensor

import (
	"math"
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

func TestShapeNumElements(t *testing.T) {
	cases := []struct {
		s    Shape
		want int
	}{
		{Shape{}, 1},
		{Shape{5}, 5},
		{Shape{2, 3}, 6},
		{Shape{4, 4, 4, 4}, 256},
	}
	for _, c := range cases {
		if got := c.s.NumElements(); got != c.want {
			t.Errorf("NumElements(%v) = %d, want %d", c.s, got, c.want)
		}
	}
}

func TestShapeEqualClone(t *testing.T) {
	s := Shape{2, 3, 4}
	c := s.Clone()
	if !s.Equal(c) {
		t.Fatalf("clone %v not equal to original %v", c, s)
	}
	c[0] = 9
	if s[0] == 9 {
		t.Fatal("clone aliases original")
	}
	if s.Equal(Shape{2, 3}) || s.Equal(Shape{2, 3, 5}) {
		t.Error("Equal returned true for different shapes")
	}
}

func TestShapeValidate(t *testing.T) {
	if err := (Shape{2, 0, 3}).Validate(); err == nil {
		t.Error("expected error for zero dimension")
	}
	if err := (Shape{2, 3}).Validate(); err != nil {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestNewAndIndexing(t *testing.T) {
	a := New(2, 3, 4)
	if a.NumElements() != 24 {
		t.Fatalf("NumElements = %d, want 24", a.NumElements())
	}
	a.Set(7.5, 1, 2, 3)
	if got := a.At(1, 2, 3); got != 7.5 {
		t.Errorf("At = %v, want 7.5", got)
	}
	// Row-major: (1,2,3) => 1*12 + 2*4 + 3 = 23.
	if a.Data()[23] != 7.5 {
		t.Error("row-major offset incorrect")
	}
}

func TestIndexPanics(t *testing.T) {
	a := New(2, 2)
	for _, idx := range [][]int{{2, 0}, {0, -1}, {0}, {0, 0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%v) did not panic", idx)
				}
			}()
			a.At(idx...)
		}()
	}
}

func TestFromDataAndReshape(t *testing.T) {
	d := []float32{1, 2, 3, 4, 5, 6}
	a := FromData(d, 2, 3)
	if a.At(1, 2) != 6 {
		t.Errorf("At(1,2) = %v, want 6", a.At(1, 2))
	}
	b := a.Reshape(3, 2)
	b.Set(99, 0, 0)
	if a.At(0, 0) != 99 {
		t.Error("Reshape must share data")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Reshape to wrong size did not panic")
			}
		}()
		a.Reshape(4, 2)
	}()
}

func TestCloneIndependence(t *testing.T) {
	a := New(3)
	a.Fill(1)
	b := a.Clone()
	b.Set(5, 0)
	if a.At(0) != 1 {
		t.Error("Clone aliases original data")
	}
}

func TestFillZeroStats(t *testing.T) {
	a := New(4)
	a.Fill(2)
	if a.Sum() != 8 || a.Mean() != 2 {
		t.Errorf("Sum/Mean = %v/%v, want 8/2", a.Sum(), a.Mean())
	}
	if a.Std() != 0 {
		t.Errorf("Std of constant = %v, want 0", a.Std())
	}
	a.Zero()
	if a.Sum() != 0 {
		t.Error("Zero did not clear tensor")
	}
}

func TestNorm2AndMaxAbs(t *testing.T) {
	a := FromData([]float32{3, -4}, 2)
	if got := a.Norm2(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Norm2 = %v, want 5", got)
	}
	if got := a.MaxAbs(); got != 4 {
		t.Errorf("MaxAbs = %v, want 4", got)
	}
}

func TestRandNormalMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(20000)
	a.RandNormal(rng, 1.5, 2.0)
	if m := a.Mean(); math.Abs(m-1.5) > 0.1 {
		t.Errorf("mean = %v, want ~1.5", m)
	}
	if s := a.Std(); math.Abs(s-2.0) > 0.1 {
		t.Errorf("std = %v, want ~2.0", s)
	}
}

func TestRandUniformRange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := New(1000)
	a.RandUniform(rng, -1, 3)
	for _, v := range a.Data() {
		if v < -1 || v >= 3 {
			t.Fatalf("value %v outside [-1,3)", v)
		}
	}
}

func TestAxpyScaleAddSub(t *testing.T) {
	x := []float32{1, 2, 3}
	y := []float32{10, 20, 30}
	Axpy(2, x, y)
	want := []float32{12, 24, 36}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("Axpy result %v, want %v", y, want)
		}
	}
	Scale(0.5, y)
	if y[2] != 18 {
		t.Errorf("Scale result %v", y)
	}
	dst := make([]float32, 3)
	Add(dst, x, x)
	if dst[1] != 4 {
		t.Errorf("Add result %v", dst)
	}
	Sub(dst, dst, x)
	if dst[1] != 2 {
		t.Errorf("Sub result %v", dst)
	}
}

func TestDotProperties(t *testing.T) {
	f := func(a, b []float32) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		a, b = a[:n], b[:n]
		d1 := Dot(a, b)
		d2 := Dot(b, a)
		return math.Abs(d1-d2) <= 1e-6*(1+math.Abs(d1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNorm2SliceConsistency(t *testing.T) {
	f := func(a []float32) bool {
		n := Norm2(a)
		return math.Abs(n*n-Dot(a, a)) <= 1e-3*(1+Dot(a, a))
	}
	cfg := &quick.Config{MaxCount: 100, Values: smallFloatSlices(64)}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestAlmostEqualAndMaxAbsDiff(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{1, 2.0005, 3}
	if !AlmostEqual(a, b, 1e-3, 0) {
		t.Error("AlmostEqual should accept within atol")
	}
	if AlmostEqual(a, b, 1e-6, 0) {
		t.Error("AlmostEqual should reject outside atol")
	}
	if AlmostEqual(a, b[:2], 1, 1) {
		t.Error("AlmostEqual should reject length mismatch")
	}
	if d := MaxAbsDiff(a, b); math.Abs(d-0.0005) > 1e-6 {
		t.Errorf("MaxAbsDiff = %v", d)
	}
}

func TestMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Axpy length mismatch did not panic")
		}
	}()
	Axpy(1, []float32{1}, []float32{1, 2})
}
