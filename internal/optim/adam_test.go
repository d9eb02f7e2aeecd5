package optim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cpufeat"
)

// setVectorAdam sets the Adam element-body switch for the rest of tb.
func setVectorAdam(tb testing.TB, on bool) {
	was := vectorAdam
	vectorAdam = on
	tb.Cleanup(func() { vectorAdam = was })
}

// requireAVX2 skips tb on a CPU without AVX2, where there is no vector
// body to compare.
func requireAVX2(tb testing.TB) {
	if !cpufeat.AVX2 {
		tb.Skip("no AVX2 vector body on this CPU or build")
	}
}

// forEachBody runs f as subtest "go" on the pure-Go element loop and as
// subtest "vector" on the vector body, which is skipped without AVX2.
func forEachBody(t *testing.T, f func(t *testing.T)) {
	for _, body := range []string{"go", "vector"} {
		t.Run(body, func(t *testing.T) {
			if body == "vector" {
				requireAVX2(t)
			}
			setVectorAdam(t, body == "vector")
			f(t)
		})
	}
}

// stepConstsAt returns the constants Step applies at step t (from 1) with
// the paper's settings.
func stepConstsAt(t int) *stepConsts {
	o := New(nil, Config{Schedule: DefaultSchedule(1000)})
	o.SetStepCount(t - 1)
	o.Step()
	return &o.k
}

// TestAdamVectorMatchesGo runs adamRange on the vector body against
// adamRangeGo for lengths 1–40 (full 8-blocks, then the Go loop's
// four-wide part and its scalar tail, and ranges too short for a block),
// at steps 1, 10 and 1000 and LARC scales 1, 0.37 and the fallback rate,
// and requires every bit of v, m and sv to match. Operands are random, or
// mixed with special values: g = ±0; g = ±1e30, whose (1−β2)·gs·gs
// overflows to +Inf; subnormal m and sv; sv = 0, so ε is the whole
// denominator; and ±MaxFloat32.
func TestAdamVectorMatchesGo(t *testing.T) {
	requireAVX2(t)
	setVectorAdam(t, true)
	const huge = 1e30
	sub := []float32{math.SmallestNonzeroFloat32, 1e-40, 3e-39}
	specials := [4][]float32{ // by operand: g, v, m, sv
		{0, float32(math.Copysign(0, -1)), huge, -huge, math.MaxFloat32, -math.MaxFloat32},
		{0, math.MaxFloat32, -math.MaxFloat32},
		{0, sub[0], -sub[0], sub[1], -sub[2], math.MaxFloat32, -math.MaxFloat32},
		{0, sub[0], sub[1], sub[2], math.MaxFloat32},
	}
	rng := rand.New(rand.NewSource(65))
	normal := func(op int) float32 {
		x := float32(rng.NormFloat64())
		if op == 3 {
			return x * x // a second moment is never negative
		}
		return x
	}
	draws := map[string]func(op int) float32{
		"random": normal,
		"special": func(op int) float32 {
			if rng.Intn(3) == 0 {
				return normal(op)
			}
			return specials[op][rng.Intn(len(specials[op]))]
		},
	}
	for name, draw := range draws {
		for _, step := range []int{1, 10, 1000} {
			k := stepConstsAt(step)
			for _, s := range []float32{1, 0.37, 6.25e-5} {
				for n := 1; n <= 40; n++ {
					var ops [4][]float32
					for op := range ops {
						ops[op] = make([]float32, n)
						for j := range ops[op] {
							ops[op][j] = draw(op)
						}
					}
					got, want := ops, ops
					for op := 1; op < 4; op++ {
						got[op] = append([]float32(nil), ops[op]...)
						want[op] = append([]float32(nil), ops[op]...)
					}
					adamRange(got[0], got[1], got[2], got[3], s, k)
					adamRangeGo(want[0], want[1], want[2], want[3], s, k)
					for op, what := range []string{"v", "m", "sv"} {
						requireSameBits(t, fmt.Sprintf("%s step %d scale %g n=%d: %s", name, step, s, n, what), got[op+1], want[op+1])
					}
				}
			}
		}
	}
}

// TestAdamVectorChecksBounds gives the vector path a v, m or sv one
// element shorter than g, cut in capacity too, since re-slicing may reach
// into it: each call must panic with a bounds error in the Go wrapper,
// before the vector body has written any element.
func TestAdamVectorChecksBounds(t *testing.T) {
	requireAVX2(t)
	setVectorAdam(t, true)
	const n = 16
	k := stepConstsAt(1)
	for short, what := range []string{"v", "m", "sv"} {
		var ops [4][]float32 // g, v, m, sv
		for op := range ops {
			ops[op] = make([]float32, n)
			for j := range ops[op] {
				ops[op][j] = 1
			}
		}
		args := ops
		args[short+1] = args[short+1][: n-1 : n-1]
		func() {
			defer func() {
				err, ok := recover().(runtime.Error)
				if !ok || !strings.Contains(err.Error(), "out of range") {
					t.Errorf("short %s: recovered %v, want a bounds panic", what, err)
				}
			}()
			adamRange(args[0], args[1], args[2], args[3], 1, k)
		}()
		for op := 1; op < 4; op++ {
			for j, x := range ops[op] {
				if x != 1 {
					t.Fatalf("short %s: operand %d element %d written (%v) before the panic", what, op, j, x)
				}
			}
		}
	}
}
