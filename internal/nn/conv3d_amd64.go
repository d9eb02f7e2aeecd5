//go:build amd64 && !purego

package nn

import "repro/internal/cpufeat"

// vectorConv selects fwdRowK3's vector body. It is cpufeat.AVX2 at init;
// tests and benchmarks clear it to run the pure-Go kernel on the same
// machine.
var vectorConv = cpufeat.AVX2

// fwdRowK3AVX2 is fwdRowK3 over the first n elements of the four rows
// (n a multiple of 4), in 8-wide blocks and at most one 4-wide block. Each
// block holds its four channel accumulators in registers across the whole
// input-channel loop and stores them once. The operands are fwdRowK3's,
// with w0…w3 pointing at weight wr of each channel and xChan in elements.
//
//go:noescape
func fwdRowK3AVX2(y0, y1, y2, y3, x *float32, xChan int, w0, w1, w2, w3 *float32, n, inC int)

// fwdRowK3 is the k=3, stride-1 row update (see fwdRowK3Go). With
// vectorConv set, rows at least four wide run their multiple-of-four
// prefix on fwdRowK3AVX2 and the rest on fwdRowK3Go. The vector lanes do
// each element's operations in fwdRowK3Go's order with separate multiplies
// and adds (VMULPS, VADDPS; never a fused multiply-add), so every output
// is bit-equal to the pure-Go kernel's.
func fwdRowK3(rows *[4][]float32, x []float32, xChan int, w *[4][]float32, wr, inC int) {
	n := len(rows[0])
	m := n &^ 3
	if !vectorConv || m == 0 || inC < 1 {
		fwdRowK3Go(rows, x, xChan, w, wr, inC)
		return
	}
	// Re-slice every operand to the exact extent the vector body reads or
	// writes, so a bad geometry panics here rather than in assembly.
	y0, y1, y2, y3 := rows[0][:n], rows[1][:n], rows[2][:n], rows[3][:n]
	last := (inC - 1) * xChan // input channel inC-1's row
	xs := x[:last+n+2]
	_ = xs[last:] // panics on a negative xChan
	wn := (inC-1)*27 + 3
	w0, w1, w2, w3 := w[0][wr:][:wn], w[1][wr:][:wn], w[2][wr:][:wn], w[3][wr:][:wn]
	fwdRowK3AVX2(&y0[0], &y1[0], &y2[0], &y3[0], &xs[0], xChan, &w0[0], &w1[0], &w2[0], &w3[0], m, inC)
	if m < n {
		tail := [4][]float32{y0[m:], y1[m:], y2[m:], y3[m:]}
		fwdRowK3Go(&tail, x[m:], xChan, w, wr, inC)
	}
}
