//go:build !amd64 || purego

package nn

// Without an AVX2 body (another architecture, or the purego tag) the
// forward row kernel is the pure-Go one; the switches exist so the same
// tests build everywhere.
var cpuAVX2, vectorConv = false, false

func fwdRowK3(rows *[4][]float32, x []float32, xChan int, w *[4][]float32, wr, inC int) {
	fwdRowK3Go(rows, x, xChan, w, wr, inC)
}
