//go:build amd64 && !purego

#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// CHAN adds one output channel's three width taps of input channel ic to
// its accumulator, acc += (w[0]·u + w[1]·v) + w[2]·t lane by lane: W is
// the channel's weight pointer, CX the byte offset of ic's taps, U V T the
// input row at width offsets 0, 1 and 2. Multiplies and adds stay separate
// so each lane rounds exactly as fwdRowK3Go does.
#define CHAN(W, ACC, T0, T1, U, V, T) \
	VBROADCASTSS (W)(CX*1), T0; \
	VMULPS       U, T0, T0; \
	VBROADCASTSS 4(W)(CX*1), T1; \
	VMULPS       V, T1, T1; \
	VADDPS       T1, T0, T0; \
	VBROADCASTSS 8(W)(CX*1), T1; \
	VMULPS       T, T1, T1; \
	VADDPS       T1, T0, T0; \
	VADDPS       T0, ACC, ACC

// func fwdRowK3AVX2(y0, y1, y2, y3, x *float32, xChan int, w0, w1, w2, w3 *float32, n, inC int)
//
// BX is the block's first element, AX walks its input rows channel by
// channel (SI bytes apart) and CX its weights (108 bytes apart, up to DI).
TEXT ·fwdRowK3AVX2(SB), NOSPLIT, $0-96
	MOVQ  x+32(FP), R13
	MOVQ  xChan+40(FP), SI
	SHLQ  $2, SI
	MOVQ  w0+48(FP), R8
	MOVQ  w1+56(FP), R9
	MOVQ  w2+64(FP), R10
	MOVQ  w3+72(FP), R11
	MOVQ  n+80(FP), DX
	MOVQ  inC+88(FP), DI
	IMULQ $108, DI
	XORQ  BX, BX

block8:
	LEAQ 8(BX), R12
	CMPQ R12, DX
	JGT  block4
	MOVQ y0+0(FP), R12
	VMOVUPS (R12)(BX*4), Y0
	MOVQ y1+8(FP), R12
	VMOVUPS (R12)(BX*4), Y1
	MOVQ y2+16(FP), R12
	VMOVUPS (R12)(BX*4), Y2
	MOVQ y3+24(FP), R12
	VMOVUPS (R12)(BX*4), Y3
	LEAQ (R13)(BX*4), AX
	XORQ CX, CX

chan8:
	VMOVUPS (AX), Y4
	VMOVUPS 4(AX), Y5
	VMOVUPS 8(AX), Y6
	CHAN(R8, Y0, Y7, Y8, Y4, Y5, Y6)
	CHAN(R9, Y1, Y9, Y10, Y4, Y5, Y6)
	CHAN(R10, Y2, Y11, Y12, Y4, Y5, Y6)
	CHAN(R11, Y3, Y13, Y14, Y4, Y5, Y6)
	ADDQ SI, AX
	ADDQ $108, CX
	CMPQ CX, DI
	JLT  chan8

	MOVQ y0+0(FP), R12
	VMOVUPS Y0, (R12)(BX*4)
	MOVQ y1+8(FP), R12
	VMOVUPS Y1, (R12)(BX*4)
	MOVQ y2+16(FP), R12
	VMOVUPS Y2, (R12)(BX*4)
	MOVQ y3+24(FP), R12
	VMOVUPS Y3, (R12)(BX*4)
	ADDQ $8, BX
	JMP  block8

block4:
	LEAQ 4(BX), R12
	CMPQ R12, DX
	JGT  done
	MOVQ y0+0(FP), R12
	VMOVUPS (R12)(BX*4), X0
	MOVQ y1+8(FP), R12
	VMOVUPS (R12)(BX*4), X1
	MOVQ y2+16(FP), R12
	VMOVUPS (R12)(BX*4), X2
	MOVQ y3+24(FP), R12
	VMOVUPS (R12)(BX*4), X3
	LEAQ (R13)(BX*4), AX
	XORQ CX, CX

chan4:
	VMOVUPS (AX), X4
	VMOVUPS 4(AX), X5
	VMOVUPS 8(AX), X6
	CHAN(R8, X0, X7, X8, X4, X5, X6)
	CHAN(R9, X1, X9, X10, X4, X5, X6)
	CHAN(R10, X2, X11, X12, X4, X5, X6)
	CHAN(R11, X3, X13, X14, X4, X5, X6)
	ADDQ SI, AX
	ADDQ $108, CX
	CMPQ CX, DI
	JLT  chan4

	MOVQ y0+0(FP), R12
	VMOVUPS X0, (R12)(BX*4)
	MOVQ y1+8(FP), R12
	VMOVUPS X1, (R12)(BX*4)
	MOVQ y2+16(FP), R12
	VMOVUPS X2, (R12)(BX*4)
	MOVQ y3+24(FP), R12
	VMOVUPS X3, (R12)(BX*4)
	ADDQ $4, BX
	JMP  block4

done:
	VZEROUPPER
	RET
