//go:build amd64 && !purego

package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// requirePanics requires fn to panic.
func requirePanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", name)
		}
	}()
	fn()
}

// cut returns s one element short, in capacity too, since re-slicing may
// reach into capacity.
func cut[T any](s []T) []T { return s[: len(s)-1 : len(s)-1] }

// dxRowK3Case is one dxRowK3 call's operands at their exact extents: an
// 8-wide row, one channel block, one tap.
type dxRowK3Case struct {
	dst, dy, w         []float32
	dyChan, wChan, wTp int
	taps               [][2]int
	mask               []int32
}

func newDxRowK3Case() *dxRowK3Case {
	c := &dxRowK3Case{dyChan: 10, wChan: 1, wTp: 4, taps: [][2]int{{0, 0}}}
	c.dst = make([]float32, 8)
	c.dy = make([]float32, 3*c.dyChan+8+2)
	c.w = make([]float32, 3*c.wChan+2*c.wTp+1)
	c.mask = make([]int32, 3*8)
	return c
}

func (c *dxRowK3Case) run() {
	dxRowK3(c.dst, c.dy, c.dyChan, c.w, c.wChan, c.wTp, c.taps, 1, c.mask)
}

// TestDxRowK3ChecksBounds gives the row kernel operands one element short
// of what its lanes read, a tap past the end or a negative stride: each
// call must panic in the Go wrapper instead of reading out of range.
func TestDxRowK3ChecksBounds(t *testing.T) {
	requireAVX2(t)
	newDxRowK3Case().run() // the exact extents are accepted
	for _, tc := range []struct {
		name   string
		mutate func(c *dxRowK3Case)
	}{
		{"short dy", func(c *dxRowK3Case) { c.dy = cut(c.dy) }},
		{"short w", func(c *dxRowK3Case) { c.w = cut(c.w) }},
		{"short mask", func(c *dxRowK3Case) { c.mask = cut(c.mask) }},
		{"tap past dy", func(c *dxRowK3Case) { c.taps = [][2]int{{0, 0}, {1, 0}} }},
		{"negative tap", func(c *dxRowK3Case) { c.taps = [][2]int{{-1, 0}} }},
		{"negative dyChan", func(c *dxRowK3Case) { c.dyChan = -c.dyChan }},
	} {
		c := newDxRowK3Case()
		tc.mutate(c)
		requirePanics(t, tc.name, c.run)
	}
}

// dxChan8Case is one dxChan8 call's operands at their exact extents: two
// channel octets, one channel block, one tap.
type dxChan8Case struct {
	dst, dy, w             []float32
	dstChan, dyChan, wChan int
	taps                   [][2]int
}

func newDxChan8Case() *dxChan8Case {
	c := &dxChan8Case{dstChan: 3, dyChan: 2, wChan: 16, taps: [][2]int{{1, 0}}}
	c.dst = make([]float32, 15*c.dstChan+1)
	c.dy = make([]float32, 1+3*c.dyChan+1)
	c.w = make([]float32, 3*c.wChan+16)
	return c
}

func (c *dxChan8Case) run() {
	dxChan8(c.dst, c.dstChan, 2, c.dy, c.dyChan, c.w, c.wChan, c.taps, 1)
}

// TestDxChan8ChecksBounds is TestDxRowK3ChecksBounds for the
// channel-lane kernel.
func TestDxChan8ChecksBounds(t *testing.T) {
	requireAVX2(t)
	newDxChan8Case().run()
	for _, tc := range []struct {
		name   string
		mutate func(c *dxChan8Case)
	}{
		{"short dst", func(c *dxChan8Case) { c.dst = cut(c.dst) }},
		{"short dy", func(c *dxChan8Case) { c.dy = cut(c.dy) }},
		{"short w", func(c *dxChan8Case) { c.w = cut(c.w) }},
		{"tap past w", func(c *dxChan8Case) { c.taps = [][2]int{{1, 1}} }},
		{"negative dstChan", func(c *dxChan8Case) { c.dstChan = -c.dstChan }},
	} {
		c := newDxChan8Case()
		tc.mutate(c)
		requirePanics(t, tc.name, c.run)
	}
}

// dwOct8Case is one dwOct8 call's operands at their exact extents: three
// lanes, two input channels, a 2 × 2 walk of rows three wide, stride 2.
type dwOct8Case struct {
	dw, x, dy          []float32
	dwOC, nl           int
	xChan, xZ, xY, dyZ int
	nic, nz, ny, ow, s int
}

func newDwOct8Case() *dwOct8Case {
	c := &dwOct8Case{dwOC: 30, nl: 3, xChan: 40, xZ: 14, xY: 7, dyZ: 48, nic: 2, nz: 2, ny: 2, ow: 3, s: 2}
	c.dw = make([]float32, (c.nl-1)*c.dwOC+(c.nic-1)*27+3)
	c.x = make([]float32, (c.nic-1)*c.xChan+(c.nz-1)*c.xZ+(c.ny-1)*c.xY+(c.ow-1)*c.s+3)
	c.dy = make([]float32, (c.nz-1)*c.dyZ+c.ny*c.ow*8)
	return c
}

func (c *dwOct8Case) run() {
	dwOct8(c.dw, c.dwOC, c.nl, c.x, c.xChan, c.xZ, c.xY, c.dy, c.dyZ, c.nic, c.nz, c.ny, c.ow, c.s)
}

// TestDwOctChecksBounds gives the backward-weights kernel an operand one
// element short of what its lanes read or write, a lane count outside
// 1–8, an empty walk or a negative stride: each call must panic in the Go
// wrapper before the assembly writes anything to dW.
func TestDwOctChecksBounds(t *testing.T) {
	requireAVX2(t)
	newDwOct8Case().run() // the exact extents are accepted
	for _, tc := range []struct {
		name   string
		mutate func(c *dwOct8Case)
	}{
		{"short dw", func(c *dwOct8Case) { c.dw = cut(c.dw) }},
		{"short x", func(c *dwOct8Case) { c.x = cut(c.x) }},
		{"short dy", func(c *dwOct8Case) { c.dy = cut(c.dy) }},
		{"nine lanes", func(c *dwOct8Case) { c.nl = 9 }},
		{"no lane", func(c *dwOct8Case) { c.nl = 0 }},
		{"empty walk", func(c *dwOct8Case) { c.ny = 0 }},
		{"negative xY", func(c *dwOct8Case) { c.xY = -c.xY }},
		{"negative dyZ", func(c *dwOct8Case) { c.dyZ = -c.dyZ }},
	} {
		c := newDwOct8Case()
		for i := range c.x {
			c.x[i] = 1
		}
		for i := range c.dy {
			c.dy[i] = 1
		}
		tc.mutate(c)
		requirePanics(t, tc.name, c.run)
		for i, v := range c.dw {
			if v != 0 {
				t.Fatalf("%s: dw[%d] = %v after the panic, want it unwritten", tc.name, i, v)
			}
		}
	}
}

// TestPrepDWRepack checks prepDW's channel-last dy copy against an
// explicit index table on an 11-channel layer: one full octet, which runs
// on octT's 8×8 transposes and their Go tail (45 positions, 5 blocks and
// 5 left over), and one of 3 channels, whose 5 padded lanes must be zero.
// dy holds its own flat index + 1, so every dyT entry names its source.
func TestPrepDWRepack(t *testing.T) {
	requireAVX2(t)
	for _, workers := range []int{1, 2} {
		pool := parallel.NewPool(workers)
		c := NewConv3D("c", 1, 11, 3, 1, 1, pool, rand.New(rand.NewSource(1)))
		x := tensor.New(1, 3, 3, 5)
		dy := tensor.New(c.Forward(x).Shape()...)
		for i := range dy.Data() {
			dy.Data()[i] = float32(i + 1)
		}
		dyT := c.prepDW(c.backwardGeom(dy), dy.Data())
		const vol = 3 * 3 * 5
		// dyT[(o·vol + r)·8 + l] is channel 8o + l's dy at flat position
		// r, dy[(8o + l)·vol + r], or 0 for channels 11–15.
		want := make([]float32, 2*vol*8)
		for o := 0; o < 2; o++ {
			for r := 0; r < vol; r++ {
				for l := 0; l < 8; l++ {
					if oc := 8*o + l; oc < 11 {
						want[(o*vol+r)*8+l] = float32(oc*vol + r + 1)
					}
				}
			}
		}
		if dyT[0] != 1 || dyT[1] != vol+1 || dyT[8] != 2 || dyT[vol*8+2] != 10*vol+1 || dyT[vol*8+3] != 0 {
			t.Fatalf("workers %d: dyT starts %v, octet 1 %v", workers, dyT[:16], dyT[vol*8:][:8])
		}
		requireBits(t, fmt.Sprintf("workers %d dyT", workers), dyT, want)
		pool.Close()
	}
}

// TestBackwardKernelsDoNotAllocate checks a call of each backward vector
// kernel allocates nothing. The operands are local arrays, which stay on
// the stack only if the assembly's pointer arguments do not escape
// (//go:noescape).
func TestBackwardKernelsDoNotAllocate(t *testing.T) {
	requireAVX2(t)
	if a := testing.AllocsPerRun(100, func() {
		var dst [12]float32
		var dy [2 + 3*20 + 12 + 2]float32
		var w [1 + 3*2 + 2*8 + 1]float32
		var mask [3 * 12]int32
		taps := [2][2]int{{0, 0}, {2, 1}}
		dxRowK3(dst[:], dy[:], 20, w[:], 2, 8, taps[:], 1, mask[:])
	}); a != 0 {
		t.Errorf("dxRowK3 allocates %v times per call, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		var dst [8 * 3]float32
		var dy [3*2 + 1]float32
		var w [3*8 + 8]float32
		taps := [1][2]int{{0, 0}}
		dxChan8(dst[:], 3, 1, dy[:], 2, w[:], 8, taps[:], 1)
	}); a != 0 {
		t.Errorf("dxChan8 allocates %v times per call, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		var dw [7*30 + 27 + 3]float32
		var x [40 + 14 + 7 + 4 + 3]float32
		var dy [48 + 48]float32
		dwOct8(dw[:], 30, 8, x[:], 40, 14, 7, dy[:], 48, 2, 2, 2, 3, 2)
	}); a != 0 {
		t.Errorf("dwOct8 allocates %v times per call, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		var src [7*20 + 20]float32
		var dst [20 * 8]float32
		var db [8]float64
		octT(dst[:], src[:], 20)
		dbOct8(&db, dst[:])
	}); a != 0 {
		t.Errorf("octT and dbOct8 allocate %v times per call, want 0", a)
	}
}

// TestPrepDXRepack checks prepDX's working copies against explicit index
// tables on a 2→3 layer whose geometry visits two of the 27 taps: a 1×1×2
// input at stride 2 reads only kd = kh = 1 and kw ∈ {1, 2}. W holds its
// own flat index + 1, so every W′ entry names the weight it copied; the
// fourth channel is the OutC%4 tail, zero in W′ and a copy of channel 2 in
// dyP.
func TestPrepDXRepack(t *testing.T) {
	pool := parallel.NewPool(2)
	defer pool.Close()
	c := NewConv3D("c", 2, 3, 3, 2, 1, pool, rand.New(rand.NewSource(1)))
	for i := range c.W.Value.Data() {
		c.W.Value.Data()[i] = float32(i + 1)
	}
	x := tensor.New(2, 1, 1, 2)
	dy := tensor.FromData([]float32{-1, -2, -3}, c.Forward(x).Shape()...)
	pl := c.prepDX(c.backwardGeom(dy), dy.Data())
	// W index of (oc, ic, kd, kh, kw) is (oc·2 + ic)·27 + (kd·3 + kh)·3 + kw;
	// tap 0 is (1, 1, 1), offset 13, and tap 1 is (1, 1, 2), offset 14.
	wantW := []float32{
		14, 41, // tap 0, oc 0, ic 0…1
		68, 95, // tap 0, oc 1
		122, 149, // tap 0, oc 2
		0, 0, // tap 0, oc 3 (tail)
		15, 42, // tap 1, oc 0
		69, 96, // tap 1, oc 1
		123, 150, // tap 1, oc 2
		0, 0, // tap 1, oc 3 (tail)
	}
	requireBits(t, "W′", c.bwd.wT, wantW)
	if pl.ocP != 4 || pl.pitch != 4 || pl.lp != 1 {
		t.Fatalf("plan ocP %d pitch %d lp %d, want 4, 4, 1", pl.ocP, pl.pitch, pl.lp)
	}
	wantDy := []float32{
		0, -1, 0, 0, // channel 0: one left pad, dy, the pitch's rest
		0, -2, 0, 0,
		0, -3, 0, 0,
		0, -3, 0, 0, // the tail repeats channel 2
	}
	requireBits(t, "dyP", c.bwd.dyP, wantDy)
}

// TestDxChannelLanesMatchRows runs backward-data's two vector paths on
// stride-1 geometries both can run, input channels in lanes against width
// in lanes, and requires both to be bit-equal to the Go body, on random
// and on special values.
func TestDxChannelLanesMatchRows(t *testing.T) {
	requireAVX2(t)
	pool := parallel.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(34))
	type geom struct{ inC, outC, d, h, w, pad int }
	for name, draw := range valueDraws(rng) {
		for _, g := range []geom{{9, 5, 3, 3, 6, 1}, {16, 8, 2, 2, 8, 1}, {8, 3, 3, 3, 5, 0}, {17, 6, 2, 1, 4, 2}} {
			c := NewConv3D("c", g.inC, g.outC, 3, 1, g.pad, pool, rng)
			x := tensor.New(g.inC, g.d, g.h, g.w)
			dy := tensor.New(c.OutputShape(x.Shape())...)
			fillFrom(draw, c.W.Value, x, dy)
			c.Forward(x)
			geo := c.backwardGeom(dy)
			run := func(path func(convGeom, dxPlan, []float32)) []float32 {
				dx := make([]float32, x.NumElements())
				path(geo, c.prepDX(geo, dy.Data()), dx)
				return dx
			}
			rows := run(func(geo convGeom, pl dxPlan, dx []float32) { c.dxRowsVector(geo, pl, dy.Data(), dx) })
			chans := run(c.dxChannelsVector)
			setVectorConv(t, false)
			want := c.backwardInput(dy).Data()
			label := fmt.Sprintf("%s %+v", name, g)
			requireBits(t, label+" channel lanes", chans, want)
			requireBits(t, label+" width lanes", rows, want)
		}
	}
}
