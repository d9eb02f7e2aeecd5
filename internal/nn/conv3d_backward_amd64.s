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
