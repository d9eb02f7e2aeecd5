package optim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
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
// and with one all-zero gradient on the third step. With LARC on, every
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
			rng := rand.New(rand.NewSource(7))
			ps := tc.params(rng)
			ref := twin(ps)
			cfg := Config{DisableLARC: tc.noLARC, Schedule: DefaultSchedule(4)}
			o, r := New(ps, cfg), New(ref, cfg)
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
	}
}

func TestStepDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ps := lengthParams(rng, 7, 1000, 4096)
	fillGrads(rng, ps, -1)
	o := New(ps, Config{Schedule: DefaultSchedule(1000)})
	if allocs := testing.AllocsPerRun(50, o.Step); allocs != 0 {
		t.Errorf("Step allocates %v times per call, want 0", allocs)
	}
}

// BenchmarkAdamLARCStep times one Step over the parameter set of each
// benchmark training workload's network: train.1rank (dim 32, base 8,
// 1.20 M parameters) and train.2rank-tcp (dim 16, base 16, 4.81 M).
func BenchmarkAdamLARCStep(b *testing.B) {
	for _, nc := range []struct {
		name      string
		dim, base int
	}{{"dim32-base8", 32, 8}, {"dim16-base16", 16, 16}} {
		b.Run(nc.name, func(b *testing.B) {
			ps := networkParams(b, nc.dim, nc.base)
			fillGrads(rand.New(rand.NewSource(1)), ps, -1)
			o := New(ps, Config{Schedule: DefaultSchedule(1000)})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o.Step()
			}
		})
	}
}
