#include "textflag.h"

// func walk5PairAVX(c0, c1 []float64, walk0, walk1 [][]float64, s0, s1 *[8]float64)
//
// Y0 and X1 hold line 0's outputs 0-3 and 4, Y2 and X3 line 1's.  SI and DI
// step through the coefficient rows, one value per point across all runs;
// R10 and R11 read each run from its end down.  Per point: broadcast x,
// multiply, add, lane by lane in walk5's order; no fused multiply-add.
TEXT ·walk5PairAVX(SB), NOSPLIT, $0-112
	MOVQ    c0_base+0(FP), SI
	MOVQ    c1_base+24(FP), DI
	MOVQ    walk0_base+48(FP), R8
	MOVQ    walk0_len+56(FP), CX
	MOVQ    walk1_base+72(FP), R9
	MOVQ    s0+96(FP), AX
	MOVQ    s1+104(FP), BX
	VMOVUPD (AX), Y0
	VMOVSD  32(AX), X1
	VMOVUPD (BX), Y2
	VMOVSD  32(BX), X3
	TESTQ   CX, CX
	JZ      done

run:
	MOVQ 8(R8), DX
	TESTQ DX, DX
	JZ   next
	MOVQ (R8), R10
	MOVQ (R9), R11
	LEAQ -8(R10)(DX*8), R10
	LEAQ -8(R11)(DX*8), R11

point:
	VBROADCASTSD (R10), Y4
	VBROADCASTSD (R11), Y5
	VMULPD       (SI), Y4, Y6
	VMULPD       (DI), Y5, Y7
	VMULSD       32(SI), X4, X8
	VMULSD       32(DI), X5, X9
	VADDPD       Y6, Y0, Y0
	VADDPD       Y7, Y2, Y2
	VADDSD       X8, X1, X1
	VADDSD       X9, X3, X3
	ADDQ         $8, SI
	ADDQ         $8, DI
	SUBQ         $8, R10
	SUBQ         $8, R11
	DECQ         DX
	JNZ          point

next:
	ADDQ $24, R8
	ADDQ $24, R9
	DECQ CX
	JNZ  run

done:
	VMOVUPD Y0, (AX)
	VMOVSD  X1, 32(AX)
	VMOVUPD Y2, (BX)
	VMOVSD  X3, 32(BX)
	VZEROUPPER
	RET

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
