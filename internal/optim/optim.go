// Package optim implements the paper's training optimizer: Adam combined
// with Layer-wise Adaptive Rate Control (LARC) and a polynomial (power = 1)
// learning-rate decay schedule, exactly as specified in §III-B.
//
// For each layer l at step t with parameters v and gradient g:
//
//	ηt   = (η0 − ηmin)·(1 − t/tdecay) + ηmin
//	η*   = 0.002·‖v‖₂/‖g‖₂          (or 6.25e-5 when either norm is zero)
//	η†   = min(η*, 1)
//	g*   = η†·g
//	v    ← Adam(v, g*, ηt)           with β1 = 0.9, β2 = 0.999, ε = 1e-8
//
// LARC's clip keeps the effective per-layer rate from exceeding the nominal
// Adam rate, which is what stabilizes the very large effective batch sizes
// of the 2048- and 8192-node runs.
package optim

import (
	"fmt"
	"math"

	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// PolySchedule is the paper's polynomial (power = 1, i.e. linear) decay from
// Eta0 to EtaMin over DecaySteps, constant at EtaMin afterwards.
type PolySchedule struct {
	Eta0       float64
	EtaMin     float64
	DecaySteps int
}

// DefaultSchedule returns the paper's η0 = 2e-3, ηmin = 1e-4 (§III-B) with
// the given decay horizon.
func DefaultSchedule(decaySteps int) PolySchedule {
	return PolySchedule{Eta0: 2e-3, EtaMin: 1e-4, DecaySteps: decaySteps}
}

// LR returns the global learning rate at step t.
func (s PolySchedule) LR(t int) float64 {
	if s.DecaySteps <= 0 || t >= s.DecaySteps {
		return s.EtaMin
	}
	frac := 1 - float64(t)/float64(s.DecaySteps)
	return (s.Eta0-s.EtaMin)*frac + s.EtaMin
}

// Config parameterizes the optimizer. Zero values select the paper's
// settings.
type Config struct {
	Beta1, Beta2 float64 // Adam moment decays (0.9, 0.999)
	Eps          float64 // Adam ε (1e-8)
	TrustCoef    float64 // LARC trust coefficient (0.002)
	FallbackLR   float64 // LARC zero-norm fallback (6.25e-5)
	Schedule     PolySchedule
	DisableLARC  bool // ablation switch: plain Adam with the schedule
}

func (c *Config) fillDefaults() {
	if c.Beta1 == 0 {
		c.Beta1 = 0.9
	}
	if c.Beta2 == 0 {
		c.Beta2 = 0.999
	}
	if c.Eps == 0 {
		c.Eps = 1e-8
	}
	if c.TrustCoef == 0 {
		c.TrustCoef = 0.002
	}
	if c.FallbackLR == 0 {
		c.FallbackLR = 6.25e-5
	}
	if c.Schedule.Eta0 == 0 && c.Schedule.EtaMin == 0 {
		c.Schedule = DefaultSchedule(0)
	}
}

// AdamLARC is the optimizer state over a fixed parameter list. Each nn.Param
// (one weight or bias tensor) is a "layer" for LARC's purposes.
type AdamLARC struct {
	cfg    Config
	params []*nn.Param
	m, v   [][]float32 // first and second Adam moments per parameter
	step   int

	pool   *parallel.Pool
	offs   []int      // parameter i holds global elements [offs[i], offs[i+1])
	scales []float32  // each parameter's LARC scale in this Step
	k      stepConsts // this Step's constants

	// larcTasks and updateTasks are the method values Step hands
	// Pool.For, bound once here so Step allocates nothing of its own.
	larcTasks, updateTasks func(lo, hi int)
}

// stepConsts are the scalars one Step applies to every element.
type stepConsts struct {
	eta, b1c, b2c, eps float64
	b1, b2, c1, c2     float32
}

// updateGrain is the fewest elements Step's update hands a worker, about
// 0.1 ms of work.
const updateGrain = 1 << 14

// New builds the optimizer for the given parameters, with Step running on
// the calling goroutine.
func New(params []*nn.Param, cfg Config) *AdamLARC {
	return NewOnPool(params, cfg, nil)
}

// NewOnPool builds the optimizer for the given parameters, with Step
// running on pool — the network's (nn.Network.Pool), so a rank's whole
// training step shares one set of workers. A nil pool runs Step on the
// calling goroutine. The updated bits are the same at every worker count.
func NewOnPool(params []*nn.Param, cfg Config, pool *parallel.Pool) *AdamLARC {
	cfg.fillDefaults()
	if pool == nil {
		pool = parallel.NewPool(1)
	}
	o := &AdamLARC{cfg: cfg, params: params, pool: pool}
	o.m = make([][]float32, len(params))
	o.v = make([][]float32, len(params))
	o.offs = make([]int, len(params)+1)
	o.scales = make([]float32, len(params))
	for i, p := range params {
		o.m[i] = make([]float32, p.NumElements())
		o.v[i] = make([]float32, p.NumElements())
		o.offs[i+1] = o.offs[i] + p.NumElements()
		o.scales[i] = 1 // DisableLARC's scale; Step overwrites it otherwise
	}
	o.larcTasks, o.updateTasks = o.larcRange, o.updateRange
	return o
}

// StepCount returns the number of completed updates.
func (o *AdamLARC) StepCount() int { return o.step }

// SetStepCount restores the schedule/bias-correction position, for
// checkpoint resume.
func (o *AdamLARC) SetStepCount(n int) { o.step = n }

// LR returns the global learning rate that the next Step will use.
func (o *AdamLARC) LR() float64 { return o.cfg.Schedule.LR(o.step) }

// StateBuffers returns the Adam moments in parameter order, first moment
// then second per parameter: [m0, v0, m1, v1, ...]. The slices alias the
// live optimizer state — copying into them restores it.
func (o *AdamLARC) StateBuffers() [][]float32 {
	out := make([][]float32, 0, 2*len(o.params))
	for i := range o.params {
		out = append(out, o.m[i], o.v[i])
	}
	return out
}

// Step applies one update using each parameter's accumulated gradient, in
// two phases on the optimizer's pool. First the LARC scales, over the
// parameter list in the pool's static chunks (larcRange). Then the Adam
// update over all parameters as one global element index, cut into
// contiguous chunks that may span parameter boundaries (updateRange). Each
// task owns its outputs and each element's update reads only that element
// and its parameter's scale, so the bits equal the serial loop's at every
// worker count (TestStepMatchesScalarReference).
func (o *AdamLARC) Step() {
	eta := o.cfg.Schedule.LR(o.step)
	o.step++
	t := float64(o.step)
	b1, b2 := float32(o.cfg.Beta1), float32(o.cfg.Beta2)
	o.k = stepConsts{
		eta: eta,
		b1c: 1 - math.Pow(o.cfg.Beta1, t),
		b2c: 1 - math.Pow(o.cfg.Beta2, t),
		eps: o.cfg.Eps,
		b1:  b1, b2: b2,
		c1: 1 - b1, c2: 1 - b2,
	}
	if !o.cfg.DisableLARC {
		o.pool.For(len(o.params), 1, o.larcTasks)
	}
	o.pool.For(o.offs[len(o.params)], updateGrain, o.updateTasks)
}

// larcRange computes LARC's clipped local rate (§III-B) of parameters
// [lo, hi).
func (o *AdamLARC) larcRange(lo, hi int) {
	for i := lo; i < hi; i++ {
		vNorm := tensor.Norm2(o.params[i].Value.Data())
		gNorm := tensor.Norm2(o.params[i].Grad.Data())
		var local float64
		if vNorm != 0 && gNorm != 0 {
			local = o.cfg.TrustCoef * vNorm / gNorm
		} else {
			local = o.cfg.FallbackLR
		}
		o.scales[i] = float32(math.Min(local, 1))
	}
}

// updateRange runs the Adam update over global elements [lo, hi), one
// adamRange call per parameter the range touches.
func (o *AdamLARC) updateRange(lo, hi int) {
	i := 0
	for o.offs[i+1] <= lo {
		i++
	}
	for ; lo < hi; i++ {
		a, b := lo-o.offs[i], min(hi, o.offs[i+1])-o.offs[i]
		p := o.params[i]
		adamRange(p.Grad.Data()[a:b], p.Value.Data()[a:b], o.m[i][a:b], o.v[i][a:b], o.scales[i], &o.k)
		lo = o.offs[i] + b
	}
}

// adamRange applies Adam with the LARC-scaled gradient s·g to one
// parameter's values v and moments m, sv over a sub-range (all four
// slices the same length).
//
// The element loop is written for the float divider's throughput, not its
// latency. CVTSD2SS and SQRTSD write only the low lane of their
// destination, and Go's amd64 backend zeroes a destination register only
// before int→float conversions, so each also waits on whatever last wrote
// that register. Two such false dependencies chain an element to the one
// before it:
//   - float32(scale), converted per element, lands in the register the
//     previous element's final CVTSD2SS wrote. It is hoisted, with 1−β1,
//     1−β2 and ε.
//   - Written one element per iteration, the hoisted loop compiles (Go
//     1.24) to SQRTSD X7, X12 after the previous element's
//     CVTSD2SS X6, X12: every element waits for the sqrt → add → div →
//     convert chain before it. That loop is 1.8× as fast as the unhoisted
//     one; four lanes are 3.5× as fast (BenchmarkAdamLARCStep, both
//     networks).
//
// So the loop updates four elements per iteration, each lane with its own
// temporaries and written out lane by lane, and a scalar tail takes the
// rest. Grouping the lanes' statements by operation instead let SQRTSD
// merge into another lane's CVTSD2SS and cost 7–18 %; read the loop's
// objdump and BenchmarkAdamLARCStep before changing its shape. Each
// element keeps the scalar form's operations in its order, so the bits
// equal it (TestStepMatchesScalarReference).
func adamRange(g, v, m, sv []float32, s float32, k *stepConsts) {
	eta, b1c, b2c, eps := k.eta, k.b1c, k.b2c, k.eps
	b1, b2, c1, c2 := k.b1, k.b2, k.c1, k.c2
	n := len(g)
	v, m, sv = v[:n], m[:n], sv[:n] // g's bounds check then covers m, sv and v
	j := 0
	for ; j+4 <= n; j += 4 {
		gs0 := s * g[j]
		m0 := b1*m[j] + c1*gs0
		v0 := b2*sv[j] + c2*gs0*gs0
		m[j], sv[j] = m0, v0
		v[j] -= float32(eta * (float64(m0) / b1c) / (math.Sqrt(float64(v0)/b2c) + eps))
		gs1 := s * g[j+1]
		m1 := b1*m[j+1] + c1*gs1
		v1 := b2*sv[j+1] + c2*gs1*gs1
		m[j+1], sv[j+1] = m1, v1
		v[j+1] -= float32(eta * (float64(m1) / b1c) / (math.Sqrt(float64(v1)/b2c) + eps))
		gs2 := s * g[j+2]
		m2 := b1*m[j+2] + c1*gs2
		v2 := b2*sv[j+2] + c2*gs2*gs2
		m[j+2], sv[j+2] = m2, v2
		v[j+2] -= float32(eta * (float64(m2) / b1c) / (math.Sqrt(float64(v2)/b2c) + eps))
		gs3 := s * g[j+3]
		m3 := b1*m[j+3] + c1*gs3
		v3 := b2*sv[j+3] + c2*gs3*gs3
		m[j+3], sv[j+3] = m3, v3
		v[j+3] -= float32(eta * (float64(m3) / b1c) / (math.Sqrt(float64(v3)/b2c) + eps))
	}
	for ; j < n; j++ {
		gs := s * g[j]
		m[j] = b1*m[j] + c1*gs
		sv[j] = b2*sv[j] + c2*gs*gs
		mHat := float64(m[j]) / b1c
		vHat := float64(sv[j]) / b2c
		v[j] -= float32(eta * mHat / (math.Sqrt(vHat) + eps))
	}
}

// String describes the optimizer configuration.
func (o *AdamLARC) String() string {
	return fmt.Sprintf("AdamLARC(β1=%g β2=%g ε=%g trust=%g η0=%g ηmin=%g decay=%d larc=%v)",
		o.cfg.Beta1, o.cfg.Beta2, o.cfg.Eps, o.cfg.TrustCoef,
		o.cfg.Schedule.Eta0, o.cfg.Schedule.EtaMin, o.cfg.Schedule.DecaySteps, !o.cfg.DisableLARC)
}
