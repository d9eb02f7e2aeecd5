//go:build amd64 && !purego

#include "textflag.h"

// HALF finishes four elements' step in float64, lane by lane, from their
// new moments in XM and XS (float32): XM = float32(eta·(m/b1c) /
// (sqrt(sv/b2c) + eps)), the Go element's operations in its order. YM and
// YS are XM's and XS's YMM registers, where the moments widen in place;
// Y5–Y8 hold eta, b1c, b2c and eps.
#define HALF(XM, YM, XS, YS) \
	VCVTPS2PD  XM, YM; \
	VCVTPS2PD  XS, YS; \
	VDIVPD     Y6, YM, YM; \
	VDIVPD     Y7, YS, YS; \
	VSQRTPD    YS, YS; \
	VADDPD     Y8, YS, YS; \
	VMULPD     YM, Y5, YM; \
	VDIVPD     YS, YM, YM; \
	VCVTPD2PSY YM, XM

// func adamAVX2(grad, v, m, sv *float32, n int, s, b1, b2, c1, c2 float32, eta, b1c, b2c, eps float64)
//
// BX walks the elements eight at a time up to n (a multiple of 8). Y0–Y4
// hold s, β1, β2, 1−β1 and 1−β2 in every float32 lane, Y5–Y8 eta, b1c,
// b2c and ε in every float64 lane.
TEXT ·adamAVX2(SB), NOSPLIT, $0-96
	MOVQ grad+0(FP), AX
	MOVQ v+8(FP), DI
	MOVQ m+16(FP), SI
	MOVQ sv+24(FP), DX
	MOVQ n+32(FP), CX
	VBROADCASTSS s+40(FP), Y0
	VBROADCASTSS b1+44(FP), Y1
	VBROADCASTSS b2+48(FP), Y2
	VBROADCASTSS c1+52(FP), Y3
	VBROADCASTSS c2+56(FP), Y4
	VBROADCASTSD eta+64(FP), Y5
	VBROADCASTSD b1c+72(FP), Y6
	VBROADCASTSD b2c+80(FP), Y7
	VBROADCASTSD eps+88(FP), Y8
	XORQ BX, BX

loop:
	CMPQ BX, CX
	JGE  done
	// gs = s·g; m = β1·m + (1−β1)·gs; sv = β2·sv + ((1−β2)·gs)·gs
	VMULPS  (AX)(BX*4), Y0, Y9
	VMULPS  (SI)(BX*4), Y1, Y10
	VMULPS  Y9, Y3, Y11
	VADDPS  Y11, Y10, Y10
	VMULPS  (DX)(BX*4), Y2, Y12
	VMULPS  Y9, Y4, Y13
	VMULPS  Y9, Y13, Y13
	VADDPS  Y13, Y12, Y12
	VMOVUPS Y10, (SI)(BX*4)
	VMOVUPS Y12, (DX)(BX*4)

	// The step of lanes 0–3 in X10 and of lanes 4–7 in X9, joined in Y10.
	VEXTRACTF128 $1, Y10, X9
	VEXTRACTF128 $1, Y12, X11
	HALF(X10, Y10, X12, Y12)
	HALF(X9, Y9, X11, Y11)
	VINSERTF128  $1, X9, Y10, Y10

	// v −= step
	VMOVUPS (DI)(BX*4), Y13
	VSUBPS  Y10, Y13, Y13
	VMOVUPS Y13, (DI)(BX*4)
	ADDQ    $8, BX
	JMP     loop

done:
	VZEROUPPER
	RET
