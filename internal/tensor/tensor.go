// Package tensor provides dense float32 tensors for the CosmoFlow network.
//
// Tensors are row-major ("C order") over an explicit shape: [C D H W]
// volumes and flat vectors. It is the only layout: the convolution kernels
// read it directly, with no channel-blocked copy (see nn.Conv3D). The
// package is deliberately small: it supplies exactly the containers and
// element-wise helpers the neural-network, optimizer and statistics
// packages need, in the spirit of the MKL-DNN memory descriptors the paper
// builds on.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Shape describes the extent of each tensor dimension, outermost first.
type Shape []int

// NumElements returns the product of all dimensions. An empty shape has one
// element (a scalar).
func (s Shape) NumElements() int {
	n := 1
	for _, d := range s {
		n *= d
	}
	return n
}

// Clone returns an independent copy of the shape.
func (s Shape) Clone() Shape {
	c := make(Shape, len(s))
	copy(c, s)
	return c
}

// Equal reports whether two shapes have identical rank and extents.
func (s Shape) Equal(t Shape) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// String renders the shape as "[d0 d1 ...]".
func (s Shape) String() string {
	return fmt.Sprintf("%v", []int(s))
}

// Validate returns an error if any dimension is non-positive.
func (s Shape) Validate() error {
	for i, d := range s {
		if d <= 0 {
			return fmt.Errorf("tensor: dimension %d is %d; must be positive", i, d)
		}
	}
	return nil
}

// Tensor is a dense row-major float32 array with an explicit shape.
// The zero value is an empty tensor; use New or FromData to construct one.
type Tensor struct {
	shape Shape
	data  []float32
}

// New allocates a zero-filled tensor of the given shape.
func New(shape ...int) *Tensor {
	s := Shape(shape)
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return &Tensor{shape: s.Clone(), data: make([]float32, s.NumElements())}
}

// FromData wraps an existing slice in a tensor. The slice is not copied; the
// caller must not resize it. The slice length must match the shape.
func FromData(data []float32, shape ...int) *Tensor {
	s := Shape(shape)
	if err := s.Validate(); err != nil {
		panic(err)
	}
	if len(data) != s.NumElements() {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d elements)",
			len(data), s, s.NumElements()))
	}
	return &Tensor{shape: s.Clone(), data: data}
}

// Wrap re-points t at an existing slice with the given shape, the in-place
// analogue of FromData: a tensor reused across calls (e.g. a serving hot
// path) avoids allocating a fresh header and shape per sample. The slice is
// not copied and must not be resized; its length must match the shape.
func (t *Tensor) Wrap(data []float32, shape ...int) {
	s := Shape(shape)
	if err := s.Validate(); err != nil {
		panic(err)
	}
	if len(data) != s.NumElements() {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d elements)",
			len(data), s, s.NumElements()))
	}
	if !t.shape.Equal(s) {
		t.shape = s.Clone()
	}
	t.data = data
}

// Release drops the tensor's reference to its backing data, so code that
// wraps caller-owned buffers (Wrap) does not pin the last caller's buffer
// between uses. The shape is kept so the next same-shape Wrap reuses it;
// the tensor must be re-Wrapped (or otherwise re-backed) before use.
func (t *Tensor) Release() {
	t.data = nil
}

// Shape returns the tensor's shape. The returned slice must not be mutated.
func (t *Tensor) Shape() Shape { return t.shape }

// Data returns the backing slice in row-major order.
func (t *Tensor) Data() []float32 { return t.data }

// NumElements returns the total element count.
func (t *Tensor) NumElements() int { return len(t.data) }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{shape: t.shape.Clone(), data: make([]float32, len(t.data))}
	copy(c.data, t.data)
	return c
}

// Reshape returns a tensor sharing t's data with a new shape of equal size.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	s := Shape(shape)
	if s.NumElements() != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elements) to %v (%d elements)",
			t.shape, len(t.data), s, s.NumElements()))
	}
	return &Tensor{shape: s.Clone(), data: t.data}
}

// Zero sets every element to zero.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// At reads the element at the given multi-index (outermost first).
func (t *Tensor) At(idx ...int) float32 {
	return t.data[t.offset(idx)]
}

// Set writes the element at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range [0,%d) in dimension %d", x, t.shape[i], i))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// RandNormal fills the tensor with samples from N(mean, std²) using rng.
func (t *Tensor) RandNormal(rng *rand.Rand, mean, std float64) {
	for i := range t.data {
		t.data[i] = float32(rng.NormFloat64()*std + mean)
	}
}

// RandUniform fills the tensor with samples from U[lo, hi) using rng.
func (t *Tensor) RandUniform(rng *rand.Rand, lo, hi float64) {
	for i := range t.data {
		t.data[i] = float32(lo + rng.Float64()*(hi-lo))
	}
}

// Norm2 returns the Euclidean (L2) norm of all elements, accumulated in
// float64 for stability.
func (t *Tensor) Norm2() float64 {
	return Norm2(t.data)
}

// MaxAbs returns the largest absolute element value.
func (t *Tensor) MaxAbs() float32 {
	var m float32
	for _, v := range t.data {
		a := v
		if a < 0 {
			a = -a
		}
		if a > m {
			m = a
		}
	}
	return m
}

// Sum returns the sum of all elements in float64.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v)
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float64 {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.data))
}

// Std returns the population standard deviation of all elements.
func (t *Tensor) Std() float64 {
	if len(t.data) == 0 {
		return 0
	}
	m := t.Mean()
	var s float64
	for _, v := range t.data {
		d := float64(v) - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(t.data)))
}
