//go:build !amd64 || purego

package optim

// Without an AVX2 body (another architecture, or the purego tag) the
// Adam update is the pure-Go loop; the switch exists so the same tests
// build everywhere.
var vectorAdam = false

// adamRange applies Adam with the LARC-scaled gradient s·g to one
// parameter's values v and moments m, sv over a sub-range (all four
// slices the same length).
func adamRange(g, v, m, sv []float32, s float32, k *stepConsts) {
	adamRangeGo(g, v, m, sv, s, k)
}
