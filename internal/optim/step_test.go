package optim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/cpufeat"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// refStep is Step written one element per iteration, converting
// float32(scale) and forming 1−β1 and 1−β2 on every element: the scalar
// form Step's four-wide loop must reproduce bit for bit.
func refStep(o *AdamLARC) {
	eta := o.cfg.Schedule.LR(o.step)
	o.step++
	t := float64(o.step)
	b1c := 1 - math.Pow(o.cfg.Beta1, t)
	b2c := 1 - math.Pow(o.cfg.Beta2, t)

	for i, p := range o.params {
		g := p.Grad.Data()
		v := p.Value.Data()

		// LARC local rate and clip (§III-B).
		scale := 1.0
		if !o.cfg.DisableLARC {
			vNorm := tensor.Norm2(v)
			gNorm := tensor.Norm2(g)
			var local float64
			if vNorm != 0 && gNorm != 0 {
				local = o.cfg.TrustCoef * vNorm / gNorm
			} else {
				local = o.cfg.FallbackLR
			}
			scale = math.Min(local, 1)
		}

		m, sv := o.m[i], o.v[i]
		b1, b2 := float32(o.cfg.Beta1), float32(o.cfg.Beta2)
		for j := range g {
			gs := float32(scale) * g[j]
			m[j] = b1*m[j] + (1-b1)*gs
			sv[j] = b2*sv[j] + (1-b2)*gs*gs
			mHat := float64(m[j]) / b1c
			vHat := float64(sv[j]) / b2c
			v[j] -= float32(eta * mHat / (math.Sqrt(vHat) + o.cfg.Eps))
		}
	}
}

// networkParams returns the parameter list of the CosmoFlow network a
// benchmark workload trains: He-initialized values, zero gradients.
func networkParams(tb testing.TB, dim, base int) []*nn.Param {
	tb.Helper()
	net, err := nn.BuildCosmoFlow(nn.TopologyConfig{InputDim: dim, BaseChannels: base, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return net.Params()
}

// lengthParams returns one parameter per length, each with its own
// values and zero gradients.
func lengthParams(rng *rand.Rand, lengths ...int) []*nn.Param {
	ps := make([]*nn.Param, len(lengths))
	for i, n := range lengths {
		vals := make([]float32, n)
		for j := range vals {
			vals[j] = float32(rng.NormFloat64())
		}
		ps[i] = makeParam(vals, make([]float32, n))
	}
	return ps
}

// twin returns a copy of ps with its own values and the same gradient
// tensors, so one gradient fill feeds both optimizers.
func twin(ps []*nn.Param) []*nn.Param {
	out := make([]*nn.Param, len(ps))
	for i, p := range ps {
		out[i] = &nn.Param{Name: p.Name, Value: p.Value.Clone(), Grad: p.Grad}
	}
	return out
}

// fillGrads writes a fresh gradient into every parameter. Each parameter
// gets its own magnitude, spread over seven decades, so LARC's rate lands
// both under and at its clip; zero, if in range, gets an all-zero gradient
// and so LARC's fallback rate.
func fillGrads(rng *rand.Rand, ps []*nn.Param, zero int) {
	for i, p := range ps {
		g := p.Grad.Data()
		if i == zero {
			clear(g)
			continue
		}
		mag := math.Pow(10, -6+7*rng.Float64())
		for j := range g {
			g[j] = float32(mag * rng.NormFloat64())
		}
	}
}

// larcPath names the branch of LARC's rate that Step takes for v and g.
func larcPath(cfg Config, v, g []float32) string {
	vNorm, gNorm := tensor.Norm2(v), tensor.Norm2(g)
	switch {
	case vNorm == 0 || gNorm == 0:
		return "fallback"
	case cfg.TrustCoef*vNorm/gNorm >= 1:
		return "clipped"
	}
	return "local"
}

// requireSameBits fails t at the first element where got and want differ
// in any bit.
func requireSameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for j := range got {
		if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
			t.Fatalf("%s[%d] = %v (%#08x), scalar reference has %v (%#08x)",
				what, j, got[j], math.Float32bits(got[j]), want[j], math.Float32bits(want[j]))
		}
	}
}

// TestStepMatchesScalarReference runs Step and refStep side by side for
// five steps and requires bit-equal parameters and Adam moments after
// each one: on both benchmark networks' parameter sets, on lengths that
// exercise every size of the four-wide loop's tail, with LARC on and off,
// and with one all-zero gradient on the third step, each at 1, 2 and 5
// workers (at 2 and 5 the networks' update chunks end inside parameters),
// on the pure-Go element loop and on the vector body. With LARC on, every
// case must take each branch of LARC's rate at least once.
func TestStepMatchesScalarReference(t *testing.T) {
	cases := []struct {
		name   string
		params func(*rand.Rand) []*nn.Param
		noLARC bool
	}{
		{name: "dim32-base8", params: func(*rand.Rand) []*nn.Param { return networkParams(t, 32, 8) }},
		{name: "dim32-base8/no-larc", params: func(*rand.Rand) []*nn.Param { return networkParams(t, 32, 8) }, noLARC: true},
		{name: "dim16-base16", params: func(*rand.Rand) []*nn.Param { return networkParams(t, 16, 16) }},
		{name: "lengths", params: func(rng *rand.Rand) []*nn.Param { return lengthParams(rng, 1, 2, 3, 5, 7, 8, 9) }},
		{name: "lengths/no-larc", params: func(rng *rand.Rand) []*nn.Param { return lengthParams(rng, 1, 2, 3, 5, 7, 8, 9) }, noLARC: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 2, 5} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					forEachBody(t, func(t *testing.T) {
						pool := parallel.NewPool(workers)
						defer pool.Close()
						rng := rand.New(rand.NewSource(7))
						ps := tc.params(rng)
						ref := twin(ps)
						cfg := Config{DisableLARC: tc.noLARC, Schedule: DefaultSchedule(4)}
						o, r := NewOnPool(ps, cfg, pool), New(ref, cfg)
						paths := map[string]int{}
						for step := 0; step < 5; step++ {
							zero := -1
							if step == 2 {
								zero = 1
							}
							fillGrads(rng, ps, zero)
							for _, p := range ps {
								paths[larcPath(o.cfg, p.Value.Data(), p.Grad.Data())]++
							}
							o.Step()
							refStep(r)
							for i := range ps {
								requireSameBits(t, ps[i].Name+" value", ps[i].Value.Data(), ref[i].Value.Data())
							}
							got, want := o.StateBuffers(), r.StateBuffers()
							for k := range got {
								requireSameBits(t, ps[k/2].Name+[]string{" m", " v"}[k%2], got[k], want[k])
							}
						}
						if o.StepCount() != r.StepCount() {
							t.Errorf("step count %d, reference %d", o.StepCount(), r.StepCount())
						}
						if !tc.noLARC && len(paths) != 3 {
							t.Errorf("LARC branches taken %v, want fallback, clipped and local", paths)
						}
					})
				})
			}
		})
	}
}

// TestStepDoesNotAllocate checks Step allocates nothing on either element
// body. On the vector body the slices' pointers stay unescaped only
// through adamAVX2's //go:noescape.
func TestStepDoesNotAllocate(t *testing.T) {
	forEachBody(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		ps := lengthParams(rng, 7, 1000, 4096)
		fillGrads(rng, ps, -1)
		o := New(ps, Config{Schedule: DefaultSchedule(1000)})
		if allocs := testing.AllocsPerRun(50, o.Step); allocs != 0 {
			t.Errorf("Step allocates %v times per call, want 0", allocs)
		}
	})
}

// TestPooledStepAllocatesOnlyForWaitGroups pins a 2-worker Step's
// allocations at exactly 2: the LARC phase and the update each make one
// Pool.For call that hands work to the other worker, and each such call
// allocates its WaitGroup. Step itself allocates nothing, on either
// element body.
func TestPooledStepAllocatesOnlyForWaitGroups(t *testing.T) {
	forEachBody(t, func(t *testing.T) {
		pool := parallel.NewPool(2)
		defer pool.Close()
		rng := rand.New(rand.NewSource(3))
		ps := lengthParams(rng, 7, 1000, 4*updateGrain)
		fillGrads(rng, ps, -1)
		o := NewOnPool(ps, Config{Schedule: DefaultSchedule(1000)}, pool)
		if allocs := testing.AllocsPerRun(50, o.Step); allocs != 2 {
			t.Errorf("2-worker Step allocates %v times per call, want 2 (one WaitGroup per Pool.For)", allocs)
		}
	})
}

// BenchmarkAdamLARCStep times one Step over the parameter set of each
// benchmark training workload's network: train.1rank (dim 32, base 8,
// 1.20 M parameters) and train.2rank-tcp (dim 16, base 16, 4.81 M), at 1
// and 2 workers, on the pure-Go element loop and on the vector body. Each
// iteration is one slice: a Step on each body, alternating which goes
// first, so a stretch of host slowdown hits both sides. It reports the
// median ms of each side, the median over slices of the Go time over the
// vector time (1 on a CPU without AVX2, where both sides run Go), and the
// allocations of a slice's two Steps.
func BenchmarkAdamLARCStep(b *testing.B) {
	setVectorAdam(b, vectorAdam) // restored however the benchmark ends
	for _, nc := range []struct {
		name      string
		dim, base int
	}{{"dim32-base8", 32, 8}, {"dim16-base16", 16, 16}} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", nc.name, workers), func(b *testing.B) {
				pool := parallel.NewPool(workers)
				defer pool.Close()
				ps := networkParams(b, nc.dim, nc.base)
				fillGrads(rand.New(rand.NewSource(1)), ps, -1)
				o := NewOnPool(ps, Config{Schedule: DefaultSchedule(1000)}, pool)
				// Sized up front, so the allocations reported are Step's.
				ms := [2][]float64{make([]float64, 0, b.N), make([]float64, 0, b.N)} // by side: 0 pure Go, 1 vector
				ratios := make([]float64, 0, b.N)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for k := range 2 {
						side := (i + k) % 2
						vectorAdam = side == 1 && cpufeat.AVX2
						start := time.Now()
						o.Step()
						ms[side] = append(ms[side], time.Since(start).Seconds()*1e3)
					}
					ratios = append(ratios, ms[0][i]/ms[1][i])
				}
				b.ReportMetric(median(ms[0]), "ms-go")
				b.ReportMetric(median(ms[1]), "ms-vector")
				b.ReportMetric(median(ratios), "go/vector")
			})
		}
	}
}

// median returns the middle value of xs, sorting xs in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return (xs[(len(xs)-1)/2] + xs[len(xs)/2]) / 2
}
