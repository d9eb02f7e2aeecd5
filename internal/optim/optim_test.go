package optim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

func makeParam(vals, grads []float32) *nn.Param {
	p := &nn.Param{
		Name:  "p",
		Value: tensor.FromData(append([]float32(nil), vals...), len(vals)),
		Grad:  tensor.FromData(append([]float32(nil), grads...), len(grads)),
	}
	return p
}

func TestPolyScheduleEndpoints(t *testing.T) {
	s := DefaultSchedule(100)
	if got := s.LR(0); math.Abs(got-2e-3) > 1e-12 {
		t.Errorf("LR(0) = %g, want 2e-3", got)
	}
	if got := s.LR(100); math.Abs(got-1e-4) > 1e-12 {
		t.Errorf("LR(100) = %g, want 1e-4", got)
	}
	if got := s.LR(1000); math.Abs(got-1e-4) > 1e-12 {
		t.Errorf("LR past decay = %g, want ηmin", got)
	}
	// Midpoint of a linear (power=1) decay.
	want := (2e-3-1e-4)*0.5 + 1e-4
	if got := s.LR(50); math.Abs(got-want) > 1e-12 {
		t.Errorf("LR(50) = %g, want %g", got, want)
	}
}

func TestPolyScheduleMonotone(t *testing.T) {
	s := DefaultSchedule(37)
	prev := math.Inf(1)
	for i := 0; i <= 40; i++ {
		lr := s.LR(i)
		if lr > prev+1e-15 {
			t.Fatalf("LR not monotone at %d: %g > %g", i, lr, prev)
		}
		prev = lr
	}
}

func TestZeroDecayStepsIsConstantMin(t *testing.T) {
	s := DefaultSchedule(0)
	if s.LR(0) != 1e-4 || s.LR(10) != 1e-4 {
		t.Error("zero decay horizon should pin LR at ηmin")
	}
}

// stepScale applies one Step of a fresh optimizer to a single parameter
// and reads back the LARC scale s that Step applied to the gradient, off
// element j, whose value must start at 0. Adam's first update is
// −η·s·g/(|s·g|+ε), so s shows only where |s·g| is near ε = 1e-8: there the
// update ratio r = |Δ|/η gives s = ε·r/((1−r)·|g|).
func stepScale(vals, grads []float32, j int, disableLARC bool) float64 {
	const eta, eps = 1e-3, 1e-8
	p := makeParam(vals, grads)
	o := New([]*nn.Param{p}, Config{DisableLARC: disableLARC, Schedule: PolySchedule{Eta0: eta, EtaMin: eta, DecaySteps: 1}})
	o.Step()
	r := math.Abs(float64(p.Value.Data()[j])) / eta
	return eps * r / ((1 - r) * math.Abs(float64(grads[j])))
}

// requireScale fails t unless got is within 0.1 % of want.
func requireScale(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-3*want {
		t.Errorf("%s: Step applied scale %g, want %g", what, got, want)
	}
}

func TestLARCLocalRateFormula(t *testing.T) {
	// ‖v‖ = 5e-6 (3-4-0), ‖g‖ = 1 → η* = 0.002·5e-6 = 1e-8, below the clip.
	got := stepScale([]float32{3e-6, 4e-6, 0}, []float32{0, 0, 1}, 2, false)
	requireScale(t, "η* = 0.002·‖v‖/‖g‖", got, 1e-8)
}

func TestLARCClipAtOne(t *testing.T) {
	// Weight norm far above the gradient's: η* = 0.002·1/1e-8 = 2e5, so
	// η† = min(η*, 1) = 1.
	got := stepScale([]float32{1, 0}, []float32{0, 1e-8}, 1, false)
	requireScale(t, "η† = min(η*, 1)", got, 1)
}

func TestLARCZeroNormFallback(t *testing.T) {
	// Zero weights take the 6.25e-5 fallback; 6.25e-5·1.6e-4 = ε.
	got := stepScale([]float32{0, 0}, []float32{1.6e-4, 0}, 0, false)
	requireScale(t, "zero-weight fallback", got, 6.25e-5)

	// Zero weights and a zero gradient leave no update to scale, but the
	// 0/0 rate must not poison the weights.
	p := makeParam([]float32{0, 0}, []float32{0, 0})
	New([]*nn.Param{p}, Config{Schedule: DefaultSchedule(100)}).Step()
	for i, v := range p.Value.Data() {
		if v != 0 {
			t.Errorf("zero-gradient step moved weight %d from 0 to %v", i, v)
		}
	}
}

func TestDisableLARCGivesUnitScale(t *testing.T) {
	// ‖v‖ = 5e-9, ‖g‖ = 1e-8: LARC would scale by η* = 1e-3.
	vals, grads := []float32{3e-9, 4e-9, 0}, []float32{0, 0, 1e-8}
	requireScale(t, "LARC enabled", stepScale(vals, grads, 2, false), 1e-3)
	requireScale(t, "LARC disabled", stepScale(vals, grads, 2, true), 1)
}

func TestAdamFirstStepMatchesHandComputation(t *testing.T) {
	// Plain Adam (LARC disabled), one parameter, one step.
	// m = 0.1·g, v = 0.001·g², m̂ = g, v̂ = g² → update = −η·g/(|g|+ε) = −η·sign(g).
	p := makeParam([]float32{1.0}, []float32{0.5})
	cfg := Config{DisableLARC: true, Schedule: PolySchedule{Eta0: 0.1, EtaMin: 0.1, DecaySteps: 1}}
	o := New([]*nn.Param{p}, cfg)
	o.Step()
	want := 1.0 - 0.1 // η·sign(0.5) = 0.1
	got := float64(p.Value.Data()[0])
	if math.Abs(got-want) > 1e-5 {
		t.Errorf("after one Adam step value = %g, want %g", got, want)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize f(v) = (v-3)²/2; gradient v-3.
	p := makeParam([]float32{0}, []float32{0})
	cfg := Config{DisableLARC: true, Schedule: PolySchedule{Eta0: 0.05, EtaMin: 0.05, DecaySteps: 1}}
	o := New([]*nn.Param{p}, cfg)
	for i := 0; i < 500; i++ {
		p.Grad.Data()[0] = p.Value.Data()[0] - 3
		o.Step()
	}
	if got := p.Value.Data()[0]; math.Abs(float64(got)-3) > 0.05 {
		t.Errorf("converged to %g, want 3", got)
	}
}

func TestAdamLARCConvergesOnQuadraticBowl(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float32, 20)
	targets := make([]float32, 20)
	for i := range vals {
		vals[i] = float32(rng.NormFloat64())
		targets[i] = float32(rng.NormFloat64()) * 2
	}
	p := makeParam(vals, make([]float32, 20))
	o := New([]*nn.Param{p}, Config{Schedule: PolySchedule{Eta0: 0.05, EtaMin: 0.01, DecaySteps: 2000}})
	for i := 0; i < 2000; i++ {
		for j := range vals {
			p.Grad.Data()[j] = p.Value.Data()[j] - targets[j]
		}
		o.Step()
	}
	var err float64
	for j := range vals {
		err += math.Abs(float64(p.Value.Data()[j] - targets[j]))
	}
	if err/20 > 0.1 {
		t.Errorf("mean abs error %g after 2000 LARC steps", err/20)
	}
}

func TestStepAdvancesScheduleAndCounter(t *testing.T) {
	p := makeParam([]float32{1}, []float32{1})
	o := New([]*nn.Param{p}, Config{Schedule: DefaultSchedule(10)})
	if o.StepCount() != 0 {
		t.Fatal("fresh optimizer step count nonzero")
	}
	lr0 := o.LR()
	o.Step()
	if o.StepCount() != 1 {
		t.Error("step count did not advance")
	}
	if o.LR() >= lr0 {
		t.Error("LR did not decay after a step")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float32 {
		p := makeParam([]float32{1, -2, 3}, []float32{0.1, 0.2, -0.3})
		o := New([]*nn.Param{p}, Config{Schedule: DefaultSchedule(100)})
		for i := 0; i < 10; i++ {
			o.Step()
		}
		return p.Value.Data()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("optimizer not deterministic")
		}
	}
}

func TestStringMentionsConfig(t *testing.T) {
	p := makeParam([]float32{1}, []float32{1})
	o := New([]*nn.Param{p}, Config{Schedule: DefaultSchedule(5)})
	if s := o.String(); len(s) == 0 {
		t.Error("empty description")
	}
}
