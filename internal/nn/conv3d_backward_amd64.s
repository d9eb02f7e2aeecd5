//go:build amd64 && !purego

#include "textflag.h"

// DXKW adds one width tap's four-channel term to the dx strip ACC where
// MASK is set: T = ((w0·d0 + w1·d1) + w2·d2) + w3·d3 lane by lane, then
// ACC = MASK ? ACC + T : ACC. The weights w0…w3 are broadcast from CX,
// CX+DI, CX+2·DI and DX; the dy strips load from AX, AX+SI, AX+2·SI and
// R14, OFF bytes on. Multiplies and adds stay separate so each lane rounds
// exactly as dxRow does.
#define DXKW(OFF, MASK, ACC, T, B) \
	VBROADCASTSS (CX), T; \
	VMULPS       OFF(AX), T, T; \
	VBROADCASTSS (CX)(DI*1), B; \
	VMULPS       OFF(AX)(SI*1), B, B; \
	VADDPS       B, T, T; \
	VBROADCASTSS (CX)(DI*2), B; \
	VMULPS       OFF(AX)(SI*2), B, B; \
	VADDPS       B, T, T; \
	VBROADCASTSS (DX), B; \
	VMULPS       OFF(R14), B, B; \
	VADDPS       B, T, T; \
	VADDPS       T, ACC, T; \
	VBLENDVPS    MASK, T, ACC, ACC

// DXTAP points AX/R14 at the four dy rows and CX/DX at the four weights of
// the tap R11 points at, for the channel block at R9 (dy) and R10 (W′).
#define DXTAP \
	MOVQ 0(R11), AX; \
	MOVQ 8(R11), CX; \
	LEAQ (R9)(AX*4), AX; \
	LEAQ (AX)(SI*2), R14; \
	ADDQ SI, R14; \
	LEAQ (R10)(CX*4), CX; \
	LEAQ (CX)(DI*2), DX; \
	ADDQ DI, DX

// func dxRowAVX2(dst *float32, n int, dy *float32, dyChan int, w *float32, wChan, wTap int, taps *[2]int, ntaps, nblk int, mask *int32)
//
// BX is the strip's first position. Per strip the accumulator is loaded
// once, walks nblk channel blocks (R13; R9 and R10 step four channels of
// dy and W′) × the taps (R11 up to R12) × kw 0, 1, 2 (dy 8, 4, 0 bytes on;
// weights R8 bytes apart), and is stored once.
TEXT ·dxRowAVX2(SB), NOSPLIT, $0-88
	MOVQ dyChan+24(FP), SI
	SHLQ $2, SI
	MOVQ wChan+40(FP), DI
	SHLQ $2, DI
	MOVQ wTap+48(FP), R8
	SHLQ $2, R8
	MOVQ taps+56(FP), R12
	MOVQ ntaps+64(FP), AX
	SHLQ $4, AX
	ADDQ AX, R12
	XORQ BX, BX

strip8:
	LEAQ    8(BX), AX
	CMPQ    AX, n+8(FP)
	JGT     strip4
	MOVQ    dst+0(FP), AX
	VMOVUPS (AX)(BX*4), Y0
	MOVQ    mask+80(FP), AX
	LEAQ    (AX)(BX*4), AX
	MOVQ    n+8(FP), CX
	VMOVUPS (AX), Y1
	VMOVUPS (AX)(CX*4), Y2
	VMOVUPS (AX)(CX*8), Y3
	MOVQ    dy+16(FP), R9
	LEAQ    (R9)(BX*4), R9
	MOVQ    w+32(FP), R10
	MOVQ    nblk+72(FP), R13

blk8:
	MOVQ taps+56(FP), R11

tap8:
	DXTAP
	DXKW(8, Y1, Y0, Y4, Y5)
	ADDQ R8, CX
	ADDQ R8, DX
	DXKW(4, Y2, Y0, Y4, Y5)
	ADDQ R8, CX
	ADDQ R8, DX
	DXKW(0, Y3, Y0, Y4, Y5)
	ADDQ $16, R11
	CMPQ R11, R12
	JLT  tap8
	LEAQ (R9)(SI*4), R9
	LEAQ (R10)(DI*4), R10
	DECQ R13
	JNZ  blk8

	MOVQ    dst+0(FP), AX
	VMOVUPS Y0, (AX)(BX*4)
	ADDQ    $8, BX
	JMP     strip8

strip4:
	LEAQ    4(BX), AX
	CMPQ    AX, n+8(FP)
	JGT     done
	MOVQ    dst+0(FP), AX
	VMOVUPS (AX)(BX*4), X0
	MOVQ    mask+80(FP), AX
	LEAQ    (AX)(BX*4), AX
	MOVQ    n+8(FP), CX
	VMOVUPS (AX), X1
	VMOVUPS (AX)(CX*4), X2
	VMOVUPS (AX)(CX*8), X3
	MOVQ    dy+16(FP), R9
	LEAQ    (R9)(BX*4), R9
	MOVQ    w+32(FP), R10
	MOVQ    nblk+72(FP), R13

blk4:
	MOVQ taps+56(FP), R11

tap4:
	DXTAP
	DXKW(8, X1, X0, X4, X5)
	ADDQ R8, CX
	ADDQ R8, DX
	DXKW(4, X2, X0, X4, X5)
	ADDQ R8, CX
	ADDQ R8, DX
	DXKW(0, X3, X0, X4, X5)
	ADDQ $16, R11
	CMPQ R11, R12
	JLT  tap4
	LEAQ (R9)(SI*4), R9
	LEAQ (R10)(DI*4), R10
	DECQ R13
	JNZ  blk4

	MOVQ    dst+0(FP), AX
	VMOVUPS X0, (AX)(BX*4)
	ADDQ    $4, BX
	JMP     strip4

done:
	VZEROUPPER
	RET

// func dxChanAVX2(dst *float32, dstChan, noct int, dy *float32, dyChan int, w *float32, wChan int, taps *[2]int, ntaps, nblk int)
//
// Per octet of input channels, Y0 starts at +0 and walks nblk channel
// blocks × the taps: the four dy values are broadcast and the four W′ rows
// load eight channels each. The eight lanes are stored dstChan apart (BX,
// R8 bytes), then the octet advances W′ by eight channels.
TEXT ·dxChanAVX2(SB), NOSPLIT, $0-80
	MOVQ dyChan+32(FP), SI
	SHLQ $2, SI
	MOVQ wChan+48(FP), DI
	SHLQ $2, DI
	MOVQ taps+56(FP), R12
	MOVQ ntaps+64(FP), AX
	SHLQ $4, AX
	ADDQ AX, R12
	MOVQ dst+0(FP), BX
	MOVQ dstChan+8(FP), R8
	SHLQ $2, R8

oct:
	VXORPS Y0, Y0, Y0
	MOVQ   dy+24(FP), R9
	MOVQ   w+40(FP), R10
	MOVQ   nblk+72(FP), R13

cblk:
	MOVQ taps+56(FP), R11

ctap:
	DXTAP
	VBROADCASTSS (AX), Y1
	VMULPS       (CX), Y1, Y1
	VBROADCASTSS (AX)(SI*1), Y2
	VMULPS       (CX)(DI*1), Y2, Y2
	VADDPS       Y2, Y1, Y1
	VBROADCASTSS (AX)(SI*2), Y2
	VMULPS       (CX)(DI*2), Y2, Y2
	VADDPS       Y2, Y1, Y1
	VBROADCASTSS (R14), Y2
	VMULPS       (DX), Y2, Y2
	VADDPS       Y2, Y1, Y1
	VADDPS       Y1, Y0, Y0
	ADDQ         $16, R11
	CMPQ         R11, R12
	JLT          ctap
	LEAQ         (R9)(SI*4), R9
	LEAQ         (R10)(DI*4), R10
	DECQ         R13
	JNZ          cblk

	LEAQ         (BX)(R8*2), AX
	ADDQ         R8, AX
	VEXTRACTPS   $0, X0, (BX)
	VEXTRACTPS   $1, X0, (BX)(R8*1)
	VEXTRACTPS   $2, X0, (BX)(R8*2)
	VEXTRACTPS   $3, X0, (AX)
	VEXTRACTF128 $1, Y0, X1
	LEAQ         (BX)(R8*4), BX
	LEAQ         (AX)(R8*4), AX
	VEXTRACTPS   $0, X1, (BX)
	VEXTRACTPS   $1, X1, (BX)(R8*1)
	VEXTRACTPS   $2, X1, (BX)(R8*2)
	VEXTRACTPS   $3, X1, (AX)
	LEAQ         (BX)(R8*4), BX
	ADDQ         $32, w+40(FP)
	DECQ         noct+16(FP)
	JNZ          oct

	VZEROUPPER
	RET

// DWTOT promotes a row's eight float32 sums ACC (ACCX its low half) and
// adds them into the float64 totals LO (lanes 0–3) and HI (lanes 4–7):
// total + float64(sum), as dwRow does.
#define DWTOT(ACC, ACCX, LO, HI) \
	VCVTPS2PD    ACCX, Y14; \
	VADDPD       Y14, LO, LO; \
	VEXTRACTF128 $1, ACC, X15; \
	VCVTPS2PD    X15, Y15; \
	VADDPD       Y15, HI, HI

// DWTAP adds to ACC the product of the dy vector Y12 and the x value OFF
// bytes past R8, broadcast: ACC + d·x, lane by lane.
#define DWTAP(OFF, ACC) \
	VBROADCASTSS OFF(R8), Y13; \
	VMULPS       Y12, Y13, Y13; \
	VADDPS       Y13, ACC, ACC

// DWSUM rounds the float64 totals LO, HI (lanes 0–3, 4–7) to float32 and
// stores the eight at OFF bytes past SP.
#define DWSUM(LO, HI, LOX, HIX, OFF) \
	VCVTPD2PSY  LO, LOX; \
	VCVTPD2PSY  HI, HIX; \
	VINSERTF128 $1, HIX, LO, LO; \
	VMOVUPS     LO, OFF(SP)

// DWADD adds the float32 total of width tap OFF/32, lane CX, to the dW
// element OFF/8 bytes past R8: dW + total, as the Go body does.
#define DWADD(OFF) \
	VMOVSS (R8), X0; \
	VADDSS OFF(SP)(CX*4), X0, X0; \
	VMOVSS X0, (R8)

// func dwOctAVX2(dw *float32, dwOC, nl int, x *float32, xChan, xZ, xY int, dy *float32, dyZ, nic, nz, ny, ow, s int)
//
// Per input channel (R14 its x, DI its dW of lane 0) the totals Y6–Y11
// start at +0 and walk nz planes (AX; R12 and BX step xZ and dyZ) × ny
// rows (R13; R11 steps xY, while R9 runs on through the plane's contiguous
// dy rows). Per row Y0–Y2 start at +0 and take, per position (CX), the
// eight dy values times x at width taps 0, 1 and 2 (R8, s elements per
// position); at the row's end they are promoted into the totals. Then the
// totals are rounded into the frame, kw by kw, and added to dW lane by
// lane for the first nl lanes (R8 steps dwOC).
TEXT ·dwOctAVX2(SB), NOSPLIT, $96-112
	MOVQ dw+0(FP), DI
	MOVQ x+24(FP), R14
	MOVQ xY+48(FP), SI
	SHLQ $2, SI
	MOVQ s+104(FP), R10
	SHLQ $2, R10
	MOVQ ow+96(FP), DX

wchan:
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	MOVQ   R14, R12
	MOVQ   dy+56(FP), BX
	MOVQ   nz+80(FP), AX

wplane:
	MOVQ R12, R11
	MOVQ BX, R9
	MOVQ ny+88(FP), R13

wrow:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	MOVQ   R11, R8
	MOVQ   DX, CX

wpos:
	VMOVUPS (R9), Y12
	DWTAP(0, Y0)
	DWTAP(4, Y1)
	DWTAP(8, Y2)
	ADDQ    $32, R9
	ADDQ    R10, R8
	DECQ    CX
	JNZ     wpos

	DWTOT(Y0, X0, Y6, Y7)
	DWTOT(Y1, X1, Y8, Y9)
	DWTOT(Y2, X2, Y10, Y11)
	ADDQ SI, R11
	DECQ R13
	JNZ  wrow

	MOVQ xZ+40(FP), CX
	LEAQ (R12)(CX*4), R12
	MOVQ dyZ+64(FP), CX
	LEAQ (BX)(CX*4), BX
	DECQ AX
	JNZ  wplane

	DWSUM(Y6, Y7, X6, X7, 0)
	DWSUM(Y8, Y9, X8, X9, 32)
	DWSUM(Y10, Y11, X10, X11, 64)
	MOVQ DI, R8
	MOVQ dwOC+8(FP), R9
	SHLQ $2, R9
	XORQ CX, CX

wlane:
	DWADD(0)
	ADDQ $4, R8
	DWADD(32)
	ADDQ $4, R8
	DWADD(64)
	LEAQ -8(R8)(R9*1), R8
	INCQ CX
	CMPQ CX, nl+16(FP)
	JLT  wlane

	ADDQ $108, DI
	MOVQ xChan+32(FP), CX
	LEAQ (R14)(CX*4), R14
	DECQ nic+72(FP)
	JNZ  wchan

	VZEROUPPER
	RET

// func dbOctAVX2(db *[8]float64, dy *float32, n int)
//
// Y0 and Y1 (lanes 0–3, 4–7) start at +0 and add the n dy octets,
// promoted, in order.
TEXT ·dbOctAVX2(SB), NOSPLIT, $0-24
	MOVQ   dy+8(FP), SI
	MOVQ   n+16(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1

boct:
	VCVTPS2PD (SI), Y2
	VADDPD    Y2, Y0, Y0
	VCVTPS2PD 16(SI), Y3
	VADDPD    Y3, Y1, Y1
	ADDQ      $32, SI
	DECQ      CX
	JNZ       boct

	MOVQ    db+0(FP), DI
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VZEROUPPER
	RET

// func octTAVX2(dst, src *float32, srcChan, nblk int)
//
// Per block, Y0–Y7 load eight positions of the eight channels (AX, R8 and
// R9 point at channels 0, 3 and 6; SI is srcChan in bytes) and an 8×8
// transpose (unpack pairs, shuffle quads, swap halves) stores them as
// eight positions of eight lanes.
TEXT ·octTAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), AX
	MOVQ srcChan+16(FP), SI
	SHLQ $2, SI
	LEAQ (AX)(SI*2), R8
	ADDQ SI, R8
	LEAQ (R8)(SI*2), R9
	ADDQ SI, R9
	MOVQ nblk+24(FP), CX

tblk:
	VMOVUPS (AX), Y0
	VMOVUPS (AX)(SI*1), Y1
	VMOVUPS (AX)(SI*2), Y2
	VMOVUPS (R8), Y3
	VMOVUPS (R8)(SI*1), Y4
	VMOVUPS (R8)(SI*2), Y5
	VMOVUPS (R9), Y6
	VMOVUPS (R9)(SI*1), Y7

	VUNPCKLPS Y1, Y0, Y8
	VUNPCKHPS Y1, Y0, Y9
	VUNPCKLPS Y3, Y2, Y10
	VUNPCKHPS Y3, Y2, Y11
	VUNPCKLPS Y5, Y4, Y12
	VUNPCKHPS Y5, Y4, Y13
	VUNPCKLPS Y7, Y6, Y14
	VUNPCKHPS Y7, Y6, Y15

	VSHUFPS $0x44, Y10, Y8, Y0
	VSHUFPS $0xEE, Y10, Y8, Y1
	VSHUFPS $0x44, Y11, Y9, Y2
	VSHUFPS $0xEE, Y11, Y9, Y3
	VSHUFPS $0x44, Y14, Y12, Y4
	VSHUFPS $0xEE, Y14, Y12, Y5
	VSHUFPS $0x44, Y15, Y13, Y6
	VSHUFPS $0xEE, Y15, Y13, Y7

	VPERM2F128 $0x20, Y4, Y0, Y8
	VPERM2F128 $0x20, Y5, Y1, Y9
	VPERM2F128 $0x20, Y6, Y2, Y10
	VPERM2F128 $0x20, Y7, Y3, Y11
	VPERM2F128 $0x31, Y4, Y0, Y12
	VPERM2F128 $0x31, Y5, Y1, Y13
	VPERM2F128 $0x31, Y6, Y2, Y14
	VPERM2F128 $0x31, Y7, Y3, Y15

	VMOVUPS Y8, (DI)
	VMOVUPS Y9, 32(DI)
	VMOVUPS Y10, 64(DI)
	VMOVUPS Y11, 96(DI)
	VMOVUPS Y12, 128(DI)
	VMOVUPS Y13, 160(DI)
	VMOVUPS Y14, 192(DI)
	VMOVUPS Y15, 224(DI)

	ADDQ $32, AX
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $256, DI
	DECQ CX
	JNZ  tblk

	VZEROUPPER
	RET
