//go:build amd64 && !purego

package nn

// Backward's AVX2 bodies, selected by vectorConv: backward-weights for
// every K = 3 layer, backward-data for K = 3 and Pad ≤ 2 (every layer of
// the CosmoFlow network). Each lane runs whole dW, dB or dx chains in the
// Go body's order, with separate multiplies and adds (VMULPS, VADDPS,
// VADDPD; never a fused multiply-add), so every gradient is bit-equal to
// conv3d_backward.go's. The operands are working copies in the layer's
// bwdScratch, rebuilt on every call; each wrapper re-slices them to the
// exact extent its assembly reads or writes, so a bad geometry panics in
// Go.

// dwOctAVX2 is dwOct8's assembly: see dwOct8 for the operands.
//
//go:noescape
func dwOctAVX2(dw *float32, dwOC, nl int, x *float32, xChan, xZ, xY int, dy *float32, dyZ, nic, nz, ny, ow, s int)

// octTAVX2 is octT's assembly over nblk blocks of eight positions.
//
//go:noescape
func octTAVX2(dst, src *float32, srcChan, nblk int)

// dbOctAVX2 is dbOct8's assembly over n octets of dy.
//
//go:noescape
func dbOctAVX2(db *[8]float64, dy *float32, n int)

// backwardWeightsVector computes dW and dB on the AVX2 body, output
// channels in lanes, and reports whether it did: for K = 3, any stride and
// padding; other kernels stay on the Go body. dy is read from dyT, a
// channel-last copy in octets of output channels (prepDW), x from the
// width-padded copy the Go body reads. A task is one octet's dB, or one
// (octet, visited (kd, kh) tap, input-channel chunk) of dW, whose dwOct8
// call keeps the 24 totals of an input channel in registers across the
// tap's whole (z, y) walk and then adds them to dW. The grid depends on
// the geometry alone and each dW and dB element belongs to one task, so
// the bits do not depend on the worker count. Lanes past OutC compute on
// zeros and are discarded.
func (c *Conv3D) backwardWeightsVector(g convGeom, dyd []float32) bool {
	if c.K != 3 {
		return false
	}
	s, p := c.Stride, c.Pad
	pitch := g.iw + 2*p
	xp := c.padInput(g)
	dyT := c.prepDW(g, dyd)
	var taps [9][2]int // the (kd, kh) taps that read an input row
	nt := 0
	for kd := 0; kd < 3; kd++ {
		for kh := 0; kh < 3; kh++ {
			if g.z.lo[kd] < g.z.hi[kd] && g.y.lo[kh] < g.y.hi[kh] {
				taps[nt] = [2]int{kd, kh}
				nt++
			}
		}
	}
	noct, chunks := (c.OutC+7)/8, (c.InC+dwICChunk-1)/dwICChunk
	perOct := 1 + nt*chunks // dB, then the dW tasks
	vol := g.od * g.oh * g.ow
	dwd, dbd := c.W.Grad.Data(), c.B.Grad.Data()
	c.pool.ForEach(noct*perOct, 1, func(task int) {
		o, r := task/perOct, task%perOct
		nl := min(8, c.OutC-8*o) // the octet's channels below OutC
		if r == 0 {
			var db [8]float64
			dbOct8(&db, dyT[o*vol*8:][:vol*8])
			for l := range nl {
				dbd[8*o+l] += float32(db[l])
			}
			return
		}
		t, ic0 := taps[(r-1)/chunks], (r-1)%chunks*dwICChunk
		kd, kh := t[0], t[1]
		nic := min(dwICChunk, c.InC-ic0)
		z0, y0 := g.z.lo[kd], g.y.lo[kh]
		dwOct8(dwd[(8*o*c.InC+ic0)*27+(kd*3+kh)*3:], c.InC*27, nl,
			xp[((ic0*g.id+z0*s+kd-p)*g.ih+y0*s+kh-p)*pitch:], g.id*g.ih*pitch, s*g.ih*pitch, s*pitch,
			dyT[((o*g.od+z0)*g.oh+y0)*g.ow*8:], g.oh*g.ow*8, nic, g.z.hi[kd]-z0, g.y.hi[kh]-y0, g.ow, s)
	})
	return true
}

// prepDW rebuilds dyT from this call's dy: channel-last in octets of
// output channels, dyT[(((o·od + z)·oh + y)·ow + x)·8 + l] = channel 8o +
// l's dy at (z, y, x), zero for a channel at or past OutC. The rows (z, y)
// are split across the pool.
func (c *Conv3D) prepDW(g convGeom, dyd []float32) []float32 {
	noct, vol := (c.OutC+7)/8, g.od*g.oh*g.ow
	c.bwd.dyT = grow(c.bwd.dyT, noct*vol*8)
	dyT := c.bwd.dyT
	c.pool.For(g.od*g.oh, 1+(1<<12)/(noct*g.ow*8), func(lo, hi int) {
		at, n := lo*g.ow, (hi-lo)*g.ow
		for o := 0; o < noct; o++ {
			dst := dyT[(o*vol+at)*8:][:n*8]
			if nl := c.OutC - 8*o; nl >= 8 {
				octT(dst, dyd[8*o*vol+at:], vol)
			} else {
				clear(dst)
				for l := range nl {
					for j, v := range dyd[(8*o+l)*vol+at:][:n] {
						dst[j*8+l] = v
					}
				}
			}
		}
	})
	return dyT
}

// octT writes dst[8j + l] = src[l·srcChan + j] for the eight lanes l and
// the len(dst)/8 positions j: eight channels of srcChan values each,
// transposed to channel-last. Blocks of eight positions run on the vector
// body, the rest in Go.
func octT(dst, src []float32, srcChan int) {
	if srcChan < 0 {
		panic("nn: octT: negative stride")
	}
	n := len(dst) / 8
	src = src[:7*srcChan+n] // channel 7's last value: a short src panics here
	if m := n &^ 7; m > 0 {
		octTAVX2(&dst[0], &src[0], srcChan, m/8)
	}
	for j := n &^ 7; j < n; j++ {
		for l := range 8 {
			dst[8*j+l] = src[l*srcChan+j]
		}
	}
}

// dbOct8 sets db[l], for the eight lanes l, to the float64 sum, started
// at +0, of dy[8j + l] over j in order: biasGrad's chain for the eight
// channels of a dyT octet.
func dbOct8(db *[8]float64, dy []float32) {
	*db = [8]float64{}
	if n := len(dy) / 8; n > 0 {
		dbOctAVX2(db, &dy[0], n)
	}
}

// dwOct8 adds to dw[l·dwOC + i·27 + kw], for the nl lanes l ≤ 8 (output
// channels), nic input channels i and width taps kw < 3, the float32 of a
// float64 total, started at +0, of nz × ny float32 row sums in (z, y)
// order. The row sum of (z, y) is Σ dy[r + 8j + l]·x[q + j·s + kw] over
// j < ow in order, started at +0, where r = z·dyZ + y·8·ow and q = i·xChan
// + z·xZ + y·xY: dwRow's chain, per output channel. Lanes from nl on are
// computed and discarded.
func dwOct8(dw []float32, dwOC, nl int, x []float32, xChan, xZ, xY int, dy []float32, dyZ, nic, nz, ny, ow, s int) {
	if nl < 1 || nl > 8 || nic < 1 || nz < 1 || ny < 1 || ow < 1 || s < 1 {
		panic("nn: dwOct8: no lane or an empty walk")
	}
	if dwOC < 0 || xChan < 0 || xZ < 0 || xY < 0 || dyZ < 0 {
		panic("nn: dwOct8: negative stride")
	}
	// Re-slice every operand to the extent the vector body reads or writes,
	// so a bad geometry panics here rather than in assembly.
	dw = dw[:(nl-1)*dwOC+(nic-1)*27+3]
	x = x[:(nic-1)*xChan+(nz-1)*xZ+(ny-1)*xY+(ow-1)*s+3]
	dy = dy[:(nz-1)*dyZ+ny*ow*8]
	dwOctAVX2(&dw[0], dwOC, nl, &x[0], xChan, xZ, xY, &dy[0], dyZ, nic, nz, ny, ow, s)
}

// dxRowAVX2 is dxRowK3's assembly: see dxRowK3 for the operands, with n
// the vector extent (a multiple of 4).
//
//go:noescape
func dxRowAVX2(dst *float32, n int, dy *float32, dyChan int, w *float32, wChan, wTap int, taps *[2]int, ntaps, nblk int, mask *int32)

// dxChanAVX2 is dxChan8's assembly: see dxChan8 for the operands.
//
//go:noescape
func dxChanAVX2(dst *float32, dstChan, noct int, dy *float32, dyChan int, w *float32, wChan int, taps *[2]int, ntaps, nblk int)

// dxPlan is the geometry backward-data's vector bodies share: the
// channel-padded count ocP (OutC rounded up to 4), dyP's row pitch and
// left padding, per axis the compact index of each visited tap (-1 if the
// tap reads no in-bounds input) with the visited counts, and per visited
// tap t = (kd, kh, kw), in lexicographic order, its offset in one input
// channel's 27 weights.
type dxPlan struct {
	ocP, pitch, lp int
	cz, cy, cx     [3]int
	ny, nx         int
	src            []int
}

// backwardDataVector computes dx on an AVX2 body into the zeroed dxd and
// reports whether it did: at stride 1 on rows at least 4 wide, width in
// lanes (dxRowsVector); else with at least 8 input channels, input
// channels in lanes (dxChannelsVector). Other geometries, and K ≠ 3 or
// Pad > 2, stay on the Go body.
func (c *Conv3D) backwardDataVector(g convGeom, dyd, dxd []float32) bool {
	if c.K != 3 || c.Pad > 2 {
		return false
	}
	rows := c.Stride == 1 && g.iw >= 4
	if !rows && c.InC < 8 {
		return false
	}
	pl := c.prepDX(g, dyd)
	if rows {
		c.dxRowsVector(g, pl, dyd, dxd)
	} else {
		c.dxChannelsVector(g, pl, dxd)
	}
	return true
}

// visitedTaps returns, per kernel tap, its index among the taps whose
// range r is non-empty (-1 for the others), and how many those are.
func visitedTaps(r tapRanges) (idx [3]int, n int) {
	for kk := range idx {
		idx[kk] = -1
		if r.lo[kk] < r.hi[kk] {
			idx[kk] = n
			n++
		}
	}
	return idx, n
}

// prepDX rebuilds backward-data's two working copies from this call's dy
// and W.Value: dyP, dy with 2-Pad zeros before and the rest of a pitch of
// iw+2 after every row and channels OutC … ocP-1 repeating channel
// OutC-1's dy; and W′ = wT, the weights of the visited taps t = (kd, kh,
// kw), in lexicographic order, as wT[(t·ocP + oc)·InC + ic], zero for oc
// ≥ OutC. Either copy holds just what the Go body reads, rearranged, so
// the vector bodies' chains see the same operands.
func (c *Conv3D) prepDX(g convGeom, dyd []float32) dxPlan {
	pl := dxPlan{ocP: (c.OutC + 3) &^ 3, pitch: g.iw + 2, lp: 2 - c.Pad}
	pl.cz, _ = visitedTaps(g.z)
	pl.cy, pl.ny = visitedTaps(g.y)
	pl.cx, pl.nx = visitedTaps(g.x)
	for kd, iz := range pl.cz {
		for kh, iy := range pl.cy {
			for kw, ix := range pl.cx {
				if iz >= 0 && iy >= 0 && ix >= 0 {
					pl.src = append(pl.src, (kd*3+kh)*3+kw)
				}
			}
		}
	}
	nt := len(pl.src)
	c.bwd.wT = grow(c.bwd.wT, nt*pl.ocP*c.InC)
	c.bwd.dyP = grow(c.bwd.dyP, pl.ocP*g.od*g.oh*pl.pitch)
	wT, dyP, wd := c.bwd.wT, c.bwd.dyP, c.W.Value.Data()
	vol, rowsP := g.od*g.oh*g.ow, g.od*g.oh
	c.pool.ForEach(pl.ocP, 1, func(oc int) {
		if oc >= c.OutC {
			for t := 0; t < nt; t++ {
				clear(wT[(t*pl.ocP+oc)*c.InC:][:c.InC])
			}
		} else {
			repackW(wT, wd[oc*c.InC*27:][:c.InC*27], pl, c.InC, oc)
		}
		src := dyd[min(oc, c.OutC-1)*vol:][:vol]
		dst := dyP[oc*rowsP*pl.pitch:][:rowsP*pl.pitch]
		for r := 0; r < rowsP; r++ {
			row := dst[r*pl.pitch:][:pl.pitch]
			clear(row[:pl.lp])
			copy(row[pl.lp:], src[r*g.ow:][:g.ow])
			clear(row[pl.lp+g.ow:])
		}
	})
	return pl
}

// repackW writes output channel oc's weights w ([InC][27]) into W′ for
// the taps pl visits.
func repackW(wT, w []float32, pl dxPlan, inC, oc int) {
	for t, so := range pl.src {
		dst := wT[(t*pl.ocP+oc)*inC:][:inC]
		for ic := range dst {
			dst[ic] = w[ic*27+so]
		}
	}
}

// dxRowsVector is backward-data with width in lanes, at stride 1: a task
// owns the (input channel, depth) slab, and per dx row dxRowK3 holds each
// 8- or 4-wide strip of the row's multiple-of-4 prefix in a register
// across the whole (channel block, kd, kh, kw) walk. The remaining
// positions of every row run on dxSlab.
func (c *Conv3D) dxRowsVector(g convGeom, pl dxPlan, dyd, dxd []float32) {
	p, m := c.Pad, g.iw&^3
	c.bwd.mask = grow(c.bwd.mask, 3*m)
	mask := c.bwd.mask
	for kw := 0; kw < 3; kw++ {
		for x := 0; x < m; x++ {
			mask[kw*m+x] = 0
			if i := x + p - kw; i >= 0 && i < g.ow {
				mask[kw*m+x] = -1
			}
		}
	}
	var tail tapRanges // the width taps restricted to positions from m on
	var zeroW []float32
	if m < g.iw {
		tail = tapRanges{make([]int, 3), g.x.hi}
		for kw := range tail.lo {
			tail.lo[kw] = max(g.x.lo[kw], m+p-kw)
		}
		zeroW = make([]float32, 27)
	}
	dyChan, wTap := g.od*g.oh*pl.pitch, pl.ocP*c.InC
	c.pool.ForEach(c.InC*g.id, 1, func(task int) {
		ic, zi := task/g.id, task%g.id
		var taps [9][2]int
		for yi := 0; yi < g.ih; yi++ {
			n := 0
			for kd := 0; kd < 3; kd++ {
				z := zi + p - kd
				if z < 0 || z >= g.od {
					continue
				}
				for kh := 0; kh < 3; kh++ {
					y := yi + p - kh
					if y < 0 || y >= g.oh {
						continue
					}
					taps[n] = [2]int{(z*g.oh + y) * pl.pitch, (pl.cz[kd]*pl.ny + pl.cy[kh]) * pl.nx * wTap}
					n++
				}
			}
			if n > 0 {
				dxRowK3(dxd[((ic*g.id+zi)*g.ih+yi)*g.iw:][:g.iw], c.bwd.dyP, dyChan, c.bwd.wT[ic:], c.InC, wTap, taps[:n], pl.ocP/4, mask)
			}
		}
		if m < g.iw {
			c.dxSlab(dxd, dyd, g, ic, zi, tail, zeroW)
		}
	})
}

// dxRowK3 adds to dst[x], for x below m = len(dst) rounded down to a
// multiple of 4, the dx chain of that position. dy rows sit dyChan apart
// per output channel, w holds channel oc's weight of width tap kw at
// [oc·wChan + kw·wTap], and each of taps is one (kd, kh) tap's (dy row,
// weight) offsets; per block of four channels (nblk of them), per tap and
// per kw, lane x adds ((w0·d0 + w1·d1) + w2·d2) + w3·d3 with dj = dy[tap
// row + x + 2 - kw] of channel j, if mask[kw·m + x] is set. A clear mask
// bit keeps the lane as it was, so a padded dy zero never reaches a
// position the Go loop leaves alone (w·0 is NaN for an infinite w, and +0
// would turn a −0 sum into +0).
func dxRowK3(dst, dy []float32, dyChan int, w []float32, wChan, wTap int, taps [][2]int, nblk int, mask []int32) {
	m := len(dst) &^ 3
	if m == 0 || len(taps) == 0 {
		return
	}
	if dyChan < 0 || wChan < 0 || wTap < 0 || nblk < 1 {
		panic("nn: dxRowK3: negative stride or no channel block")
	}
	// Re-slice every operand to the extent the vector body reads, so a bad
	// geometry panics here rather than in assembly.
	mask = mask[:3*m]
	last := 4*nblk - 1 // the last channel's offset, in channels
	for _, t := range taps {
		_ = dy[t[0]:][:last*dyChan+m+2]
		_ = w[t[1]:][last*wChan+2*wTap]
	}
	dxRowAVX2(&dst[0], m, &dy[0], dyChan, &w[0], wChan, wTap, &taps[0], len(taps), nblk, &mask[0])
}

// dxChannelsVector is backward-data with input channels in lanes, for
// rows under 4 wide and stride 2: a task owns one dx position and a run of
// up to four channel octets, and dxChan8 holds each octet's eight chains
// in a register across the position's (channel block, kd, kh, kw) walk. A
// channel tail past the last octet runs the same chain in Go (dxChanGo).
func (c *Conv3D) dxChannelsVector(g convGeom, pl dxPlan, dxd []float32) {
	const octsPerTask = 4
	k, s, p := c.K, c.Stride, c.Pad
	oct := c.InC / 8
	chunks := (oct + octsPerTask - 1) / octsPerTask
	dstChan := g.id * g.ih * g.iw
	dyChan, wTap := g.od*g.oh*pl.pitch, pl.ocP*c.InC
	c.pool.ForEach(dstChan*chunks, 1, func(task int) {
		e, ch := task/chunks, task%chunks
		zi, yi, xi := e/(g.ih*g.iw), e/g.iw%g.ih, e%g.iw
		var taps [27][2]int
		n := 0
		for kd := 0; kd < k; kd++ {
			nz := zi + p - kd
			if nz < 0 || nz%s != 0 || nz/s >= g.od {
				continue
			}
			for kh := 0; kh < k; kh++ {
				ny := yi + p - kh
				if ny < 0 || ny%s != 0 || ny/s >= g.oh {
					continue
				}
				for kw := 0; kw < k; kw++ {
					nx := xi + p - kw
					if nx < 0 || nx%s != 0 || nx/s >= g.ow {
						continue
					}
					t := (pl.cz[kd]*pl.ny+pl.cy[kh])*pl.nx + pl.cx[kw]
					taps[n] = [2]int{(nz/s*g.oh+ny/s)*pl.pitch + pl.lp + nx/s, t * wTap}
					n++
				}
			}
		}
		if n == 0 {
			return // no output reads this position: its dx stays 0
		}
		o0 := ch * octsPerTask
		o1 := min(o0+octsPerTask, oct)
		dxChan8(dxd[o0*8*dstChan+e:], dstChan, o1-o0, c.bwd.dyP, dyChan, c.bwd.wT[o0*8:], c.InC, taps[:n], pl.ocP/4)
		if o1 == oct {
			for ic := oct * 8; ic < c.InC; ic++ {
				dxd[ic*dstChan+e] = dxChanGo(c.bwd.dyP, dyChan, c.bwd.wT[ic:], c.InC, taps[:n], pl.ocP/4)
			}
		}
	})
}

// dxChan8 stores into dst[l·dstChan], for the 8·noct lanes l, the dx chain
// of input channel l: per block of four output channels (nblk of them)
// and per tap, ((w0·d0 + w1·d1) + w2·d2) + w3·d3 with dj = dy[tap[0] +
// j·dyChan] and wj = w[tap[1] + j·wChan + l], from the next block on
// dyChan and wChan four channels further; the chain starts at +0.
func dxChan8(dst []float32, dstChan, noct int, dy []float32, dyChan int, w []float32, wChan int, taps [][2]int, nblk int) {
	if noct < 1 || len(taps) == 0 {
		return
	}
	if dstChan < 0 || dyChan < 0 || wChan < 0 || nblk < 1 {
		panic("nn: dxChan8: negative stride or no channel block")
	}
	// Re-slice every operand to the extent the vector body reads or writes,
	// so a bad geometry panics here rather than in assembly.
	_ = dst[(8*noct-1)*dstChan]
	last := 4*nblk - 1
	for _, t := range taps {
		_ = dy[t[0]:][last*dyChan]
		_ = w[t[1]:][:last*wChan+8*noct]
	}
	dxChanAVX2(&dst[0], dstChan, noct, &dy[0], dyChan, &w[0], wChan, &taps[0], len(taps), nblk)
}

// dxChanGo is one lane of dxChan8: the chain of the input channel whose
// weights start at w[0].
func dxChanGo(dy []float32, dyChan int, w []float32, wChan int, taps [][2]int, nblk int) float32 {
	var acc float32
	for b := 0; b < nblk; b++ {
		for _, t := range taps {
			d, wv := dy[t[0]+4*b*dyChan:], w[t[1]+4*b*wChan:]
			acc += wv[0]*d[0] + wv[wChan]*d[dyChan] + wv[2*wChan]*d[2*dyChan] + wv[3*wChan]*d[3*dyChan]
		}
	}
	return acc
}
