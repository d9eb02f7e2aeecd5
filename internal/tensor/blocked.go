package tensor

import "fmt"

// BlockSize is the channel block width used by the blocked conv kernels.
// The paper blocks by 16 channels to match the AVX512 single-precision SIMD
// width (Algorithm 1); we keep the same number so the kernel structure is
// identical.
const BlockSize = 16

// Blocked is a 3D multi-channel volume stored in the blocked layout
// [CB][D][H][W][16] used by the direct-convolution kernels, where
// CB = ceil(C/16) channel blocks. Channels beyond C within the last block
// are zero padding.
type Blocked struct {
	C       int // logical channel count
	D, H, W int // spatial extents
	CB      int // number of channel blocks
	Data    []float32
}

// Index returns the flat offset of channel c at voxel (d, h, w).
func (b *Blocked) Index(c, d, h, w int) int {
	cb, ci := c/BlockSize, c%BlockSize
	return (((cb*b.D+d)*b.H+h)*b.W+w)*BlockSize + ci
}

// At reads the element for channel c at voxel (d, h, w).
func (b *Blocked) At(c, d, h, w int) float32 { return b.Data[b.Index(c, d, h, w)] }

// Set writes the element for channel c at voxel (d, h, w).
func (b *Blocked) Set(v float32, c, d, h, w int) { b.Data[b.Index(c, d, h, w)] = v }

// Zero clears all elements, including the channel padding.
func (b *Blocked) Zero() { ZeroSlice(b.Data) }

// WrapBlocked builds a blocked volume over an existing slice without
// copying, the Blocked analogue of FromData: the conv kernels recycle their
// blocked scratch through a BufPool instead of allocating per call. data
// must hold exactly ceil(c/BlockSize)·d·h·w·BlockSize values; when c is not
// a multiple of BlockSize the channel-padding lanes must already be zero (a
// fresh slice, or a recycled buffer from a same-shape conversion, satisfies
// this).
func WrapBlocked(data []float32, c, d, h, w int) *Blocked {
	if c <= 0 || d <= 0 || h <= 0 || w <= 0 {
		panic(fmt.Sprintf("tensor: invalid blocked extents c=%d d=%d h=%d w=%d", c, d, h, w))
	}
	cb := (c + BlockSize - 1) / BlockSize
	if len(data) != cb*d*h*w*BlockSize {
		panic(fmt.Sprintf("tensor: blocked data length %d does not match c=%d d=%d h=%d w=%d (%d elements)",
			len(data), c, d, h, w, cb*d*h*w*BlockSize))
	}
	return &Blocked{C: c, D: d, H: h, W: w, CB: cb, Data: data}
}

// ToBlockedInto converts a CDHW tensor (shape [C D H W]) into dst, which
// must have matching extents. Only the real channel lanes are written; dst's
// channel padding is left untouched (a fresh slice is zero there, and the
// converters never write it, so recycled buffers stay valid).
func ToBlockedInto(t *Tensor, b *Blocked) {
	s := t.Shape()
	if len(s) != 4 {
		panic(fmt.Sprintf("tensor: ToBlockedInto requires a rank-4 CDHW tensor, got %v", s))
	}
	c, d, h, w := s[0], s[1], s[2], s[3]
	if b.C != c || b.D != d || b.H != h || b.W != w {
		panic(fmt.Sprintf("tensor: ToBlockedInto destination [%d %d %d %d] does not match source %v",
			b.C, b.D, b.H, b.W, s))
	}
	src := t.Data()
	for ch := 0; ch < c; ch++ {
		cb, ci := ch/BlockSize, ch%BlockSize
		for z := 0; z < d; z++ {
			for y := 0; y < h; y++ {
				so := ((ch*d+z)*h + y) * w
				do := (((cb*d+z)*h+y)*w)*BlockSize + ci
				for x := 0; x < w; x++ {
					b.Data[do+x*BlockSize] = src[so+x]
				}
			}
		}
	}
}

// FromBlockedInto converts a blocked volume into an existing CDHW tensor of
// matching shape, discarding the channel padding. Every destination element
// is written, so recycled output buffers need no clearing.
func FromBlockedInto(b *Blocked, t *Tensor) {
	s := t.Shape()
	if len(s) != 4 || s[0] != b.C || s[1] != b.D || s[2] != b.H || s[3] != b.W {
		panic(fmt.Sprintf("tensor: FromBlockedInto destination %v does not match source [%d %d %d %d]",
			s, b.C, b.D, b.H, b.W))
	}
	dst := t.Data()
	for ch := 0; ch < b.C; ch++ {
		cb, ci := ch/BlockSize, ch%BlockSize
		for z := 0; z < b.D; z++ {
			for y := 0; y < b.H; y++ {
				do := ((ch*b.D+z)*b.H + y) * b.W
				so := (((cb*b.D+z)*b.H+y)*b.W)*BlockSize + ci
				for x := 0; x < b.W; x++ {
					dst[do+x] = b.Data[so+x*BlockSize]
				}
			}
		}
	}
}

// BlockedWeights stores convolution weights in the blocked layout
// [OCB][ICB][KD][KH][KW][16ic][16oc] used by Algorithm 1 in the paper.
// Input/output channels beyond IC/OC inside the final blocks are zero.
type BlockedWeights struct {
	OC, IC     int
	KD, KH, KW int
	OCB, ICB   int
	Data       []float32
}

// NewBlockedWeights allocates zeroed blocked weights.
func NewBlockedWeights(oc, ic, kd, kh, kw int) *BlockedWeights {
	ocb := (oc + BlockSize - 1) / BlockSize
	icb := (ic + BlockSize - 1) / BlockSize
	return &BlockedWeights{
		OC: oc, IC: ic, KD: kd, KH: kh, KW: kw, OCB: ocb, ICB: icb,
		Data: make([]float32, ocb*icb*kd*kh*kw*BlockSize*BlockSize),
	}
}

// Index returns the flat offset of weight element (oc, ic, kd, kh, kw).
func (w *BlockedWeights) Index(oc, ic, kd, kh, kw int) int {
	ocb, oci := oc/BlockSize, oc%BlockSize
	icb, ici := ic/BlockSize, ic%BlockSize
	return ((((ocb*w.ICB+icb)*w.KD+kd)*w.KH+kh)*w.KW+kw)*BlockSize*BlockSize + ici*BlockSize + oci
}

// PackWeights converts OIDHW weights (shape [OC IC KD KH KW]) into the
// blocked layout.
func PackWeights(t *Tensor) *BlockedWeights {
	s := t.Shape()
	if len(s) != 5 {
		panic(fmt.Sprintf("tensor: PackWeights requires rank-5 OIDHW weights, got %v", s))
	}
	oc, ic, kd, kh, kw := s[0], s[1], s[2], s[3], s[4]
	bw := NewBlockedWeights(oc, ic, kd, kh, kw)
	src := t.Data()
	i := 0
	for o := 0; o < oc; o++ {
		for c := 0; c < ic; c++ {
			for z := 0; z < kd; z++ {
				for y := 0; y < kh; y++ {
					for x := 0; x < kw; x++ {
						bw.Data[bw.Index(o, c, z, y, x)] = src[i]
						i++
					}
				}
			}
		}
	}
	return bw
}

// UnpackWeights converts blocked weights back into an OIDHW tensor.
func UnpackWeights(bw *BlockedWeights) *Tensor {
	t := New(bw.OC, bw.IC, bw.KD, bw.KH, bw.KW)
	dst := t.Data()
	i := 0
	for o := 0; o < bw.OC; o++ {
		for c := 0; c < bw.IC; c++ {
			for z := 0; z < bw.KD; z++ {
				for y := 0; y < bw.KH; y++ {
					for x := 0; x < bw.KW; x++ {
						dst[i] = bw.Data[bw.Index(o, c, z, y, x)]
						i++
					}
				}
			}
		}
	}
	return t
}
