#include "textflag.h"

// The SSE2 forms of rowPair8Go and rowPair16Go (swar.go): the same
// skewed two-row pass over the same uint64 words, one word in the low
// half of an XMM register (MOVQ loads zero the high half, and every op
// below keeps it zero). Each guard-bit op of the portable kernel is one
// saturating lane op here: SubClamp → PSUBUS, the diagonal's plain add
// → PADDUS, max8/max16 → PMAXUB/PMAXSW, sat |= da|db → two POR.
//
// Registers, as named in the Go body:
//	X0 gapV   X1 best   X2 sat   X3 a1 (a[j-1])   X4 a2 (a[j-2]), then db
//	X5 b      X6 da, then a      X8 ag            X9, X10 loads, up term
//	DI row  SI plusA  R8 minusA  R9 plusB  R10 minusB  CX n  BX j
//
// Row i-1's word j-1 is loaded again as a's diagonal rather than kept
// from the step before: one load costs less than the two register
// copies it saves. The callers (rowpair_amd64.go) check n ≥ 1 and that
// every profile row holds n words; nothing here does.

// func rowPair8SSE2(row, plusA, minusA, plusB, minusB *uint64, n int, gapV, best, sat uint64) (newBest, newSat uint64)
TEXT ·rowPair8SSE2(SB), NOSPLIT, $0-88
	MOVQ row+0(FP), DI
	MOVQ plusA+8(FP), SI
	MOVQ minusA+16(FP), R8
	MOVQ plusB+24(FP), R9
	MOVQ minusB+32(FP), R10
	MOVQ n+40(FP), CX
	MOVQ gapV+48(FP), X0
	MOVQ best+56(FP), X1
	MOVQ sat+64(FP), X2

	// Word 0 of row i: a1 = max(plusA[0], row[0] - gap); the zero border
	// leaves no left term and a diagonal of plus alone.
	MOVQ (DI), X3
	PSUBUSB X0, X3
	MOVQ (SI), X9
	PMAXUB X9, X3
	PXOR X4, X4
	PXOR X5, X5
	PMAXUB X3, X1
	MOVQ $1, BX
	CMPQ CX, BX
	JLE last8

loop8:
	MOVO X3, X8
	PSUBUSB X0, X8      // ag = a1 - gap
	MOVQ -8(DI)(BX*8), X6
	MOVQ (R8)(BX*8), X9
	PSUBUSB X9, X6
	MOVQ (SI)(BX*8), X9
	PADDUSB X9, X6      // da = row[j-1] - minusA[j] + plusA[j]
	MOVQ -8(R10)(BX*8), X10
	PSUBUSB X10, X4
	MOVQ -8(R9)(BX*8), X10
	PADDUSB X10, X4     // db = a2 - minusB[j-1] + plusB[j-1]
	POR X6, X2
	POR X4, X2          // sat |= da | db
	MOVQ (DI)(BX*8), X9
	PSUBUSB X0, X9
	PMAXUB X9, X6
	PMAXUB X8, X6       // a = max(da, row[j] - gap, ag)
	PMAXUB X8, X4
	PSUBUSB X0, X5
	PMAXUB X4, X5       // b = max(db, ag, b - gap)
	MOVQ X5, -8(DI)(BX*8) // row i-1's word, read above as a's diagonal
	PMAXUB X6, X1
	PMAXUB X5, X1       // best = max(a, b, best)
	MOVO X3, X4         // a2 = a1
	MOVO X6, X3         // a1 = a
	INCQ BX
	CMPQ BX, CX
	JLT loop8

last8:
	// Last word of row i+1.
	MOVQ -8(R10)(CX*8), X10
	PSUBUSB X10, X4
	MOVQ -8(R9)(CX*8), X10
	PADDUSB X10, X4     // db
	POR X4, X2
	PSUBUSB X0, X3
	PSUBUSB X0, X5
	PMAXUB X3, X4
	PMAXUB X5, X4       // b = max(db, a1 - gap, b - gap)
	MOVQ X4, -8(DI)(CX*8)
	PMAXUB X4, X1
	MOVQ X1, newBest+72(FP)
	MOVQ X2, newSat+80(FP)
	RET

// func rowPair16SSE2(row, plusA, minusA, plusB, minusB *uint64, n int, gapV, best, sat uint64) (newBest, newSat uint64)
//
// rowPair8SSE2 for 4 uint16 lanes. SSE2 has no unsigned word maximum;
// the signed PMAXSW is the unsigned one on clean lanes (≤ 32767), and a
// lane holding more has set its guard bit in sat already.
TEXT ·rowPair16SSE2(SB), NOSPLIT, $0-88
	MOVQ row+0(FP), DI
	MOVQ plusA+8(FP), SI
	MOVQ minusA+16(FP), R8
	MOVQ plusB+24(FP), R9
	MOVQ minusB+32(FP), R10
	MOVQ n+40(FP), CX
	MOVQ gapV+48(FP), X0
	MOVQ best+56(FP), X1
	MOVQ sat+64(FP), X2

	MOVQ (DI), X3
	PSUBUSW X0, X3
	MOVQ (SI), X9
	PMAXSW X9, X3
	PXOR X4, X4
	PXOR X5, X5
	PMAXSW X3, X1
	MOVQ $1, BX
	CMPQ CX, BX
	JLE last16

loop16:
	MOVO X3, X8
	PSUBUSW X0, X8
	MOVQ -8(DI)(BX*8), X6
	MOVQ (R8)(BX*8), X9
	PSUBUSW X9, X6
	MOVQ (SI)(BX*8), X9
	PADDUSW X9, X6
	MOVQ -8(R10)(BX*8), X10
	PSUBUSW X10, X4
	MOVQ -8(R9)(BX*8), X10
	PADDUSW X10, X4
	POR X6, X2
	POR X4, X2
	MOVQ (DI)(BX*8), X9
	PSUBUSW X0, X9
	PMAXSW X9, X6
	PMAXSW X8, X6
	PMAXSW X8, X4
	PSUBUSW X0, X5
	PMAXSW X4, X5
	MOVQ X5, -8(DI)(BX*8)
	PMAXSW X6, X1
	PMAXSW X5, X1
	MOVO X3, X4
	MOVO X6, X3
	INCQ BX
	CMPQ BX, CX
	JLT loop16

last16:
	MOVQ -8(R10)(CX*8), X10
	PSUBUSW X10, X4
	MOVQ -8(R9)(CX*8), X10
	PADDUSW X10, X4
	POR X4, X2
	PSUBUSW X0, X3
	PSUBUSW X0, X5
	PMAXSW X3, X4
	PMAXSW X5, X4
	MOVQ X4, -8(DI)(CX*8)
	PMAXSW X4, X1
	MOVQ X1, newBest+72(FP)
	MOVQ X2, newSat+80(FP)
	RET
