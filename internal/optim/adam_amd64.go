//go:build amd64 && !purego

package optim

import "repro/internal/cpufeat"

// vectorAdam selects adamRange's vector body. It is cpufeat.AVX2 at init;
// tests and benchmarks clear it to run the pure-Go loop on the same
// machine.
var vectorAdam = cpufeat.AVX2

// adamAVX2 is adamRangeGo over the first n elements (n a multiple of 8),
// eight per iteration, with Step's constants passed one by one. The
// pointers are the element-0 addresses of the four slices.
//
//go:noescape
func adamAVX2(grad, v, m, sv *float32, n int, s, b1, b2, c1, c2 float32, eta, b1c, b2c, eps float64)

// adamRange applies Adam with the LARC-scaled gradient s·g to one
// parameter's values v and moments m, sv over a sub-range (all four
// slices the same length). With vectorAdam set, the multiple-of-eight
// prefix runs on adamAVX2 and the rest on adamRangeGo.
//
// Each vector lane does the Go element's operations in its order, every
// one correctly rounded: the moments in float32 with separate multiplies
// and adds (VMULPS, VADDPS; never a fused multiply-add), then each half
// of the block widened (VCVTPS2PD) for the three divides, the square
// root, the add of ε and the multiply by eta (VDIVPD, VSQRTPD, VADDPD,
// VMULPD), narrowed back (VCVTPD2PS) and subtracted from v (VSUBPS). So
// every bit equals adamRangeGo's (TestAdamVectorMatchesGo).
func adamRange(g, v, m, sv []float32, s float32, k *stepConsts) {
	n := len(g)
	// Re-slice to g's length, so a short v, m or sv panics here rather
	// than in assembly.
	v, m, sv = v[:n], m[:n], sv[:n]
	j := 0
	if vectorAdam && n >= 8 {
		j = n &^ 7
		adamAVX2(&g[0], &v[0], &m[0], &sv[0], j, s, k.b1, k.b2, k.c1, k.c2, k.eta, k.b1c, k.b2c, k.eps)
	}
	adamRangeGo(g[j:], v[j:], m[j:], sv[j:], s, k)
}
