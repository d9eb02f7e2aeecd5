//go:build !amd64 || purego

package nn

// Without an AVX2 body backward-weights and backward-data are the pure-Go
// ones.

func (c *Conv3D) backwardWeightsVector(convGeom, []float32) bool { return false }

func (c *Conv3D) backwardDataVector(convGeom, []float32, []float32) bool { return false }
