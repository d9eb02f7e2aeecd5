//go:build !amd64 || purego

package nn

// Without an AVX2 body backward-data is the pure-Go one.

func (c *Conv3D) backwardDataVector(convGeom, []float32, []float32) bool { return false }
