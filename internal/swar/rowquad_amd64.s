#include "textflag.h"

// The SSE2 four-row kernels: rows i…i+3 of the packed recurrence in one
// skewed pass over the same uint64 row and profile words the portable
// two-row kernels (rowPair8Go, rowPair16Go in swar.go) read. The step at
// word j computes
//
//	X = [row i @ j   | row i+2 @ j-2]
//	Y = [row i+1 @ j-1 | row i+3 @ j-3]
//
// so the high halves run the portable kernel's two-row schedule two
// words behind the low ones, with row i+1 — Y's low half, never stored
// — as their row above: X's north high half is the last Y's low half
// (one PUNPCKLQDQ), and its diagonal is the last north. Each guard-bit
// op of the portable kernel is one saturating lane op here: SubClamp →
// PSUBUS, the diagonal's plain add → PADDUS, max8/max16 → PMAXUB/PMAXSW,
// sat |= da|db → two POR; the same 15 ops compute 32 cells (int8).
//
// Registers, as the QUAD macro names them:
//	X0 gap (both halves)   X1 best   X2 sat
//	X3 X (the last X)      X4 a2 (the X before it), then db
//	X5 Y (the last Y)      X7 D (the last north, X's diagonal), then da, then X
//	X8 ag = X - gap (the new X's west term, the new Y's north term)
//	X9, X10 X's minus and plus words   X12, X13 Y's   X11 N, X's north
//	X14 [0 | ^0], the epilogue's mask
//	DI row   SI, R8 plus, minus of row i   R9, R10 of row i+1
//	R11, R12 of row i+2   AX, DX of row i+3   CX n   BX j
//
// Steps 0…2 and n…n+2 are the skew's prologue and epilogue, where one
// half runs outside the row. A prologue high half computes a border
// cell: all its inputs are zero and its profile words are left zero, so
// it is zero and ORs nothing into sat. An epilogue low half computes a
// cell past the row's end: its north, diagonal and profile words are
// zero, so its value is its west or north term less the gap — at most a
// cell already folded into best — and its diagonal term, the only one
// ORed into sat, is zero. Row i+3's word j-3 is stored one step after
// row i-1's was last read, as X's north. The callers (rowquad_amd64.go)
// check n ≥ 4 and that every profile row holds n words; nothing here
// does.

// QUAD is one step, given X9, X10, X12, X13, the north N in X11 and the
// diagonal D in X7: ag, da, db, sat, the new X and Y, best, and the
// registers moved on to the next step.
#define QUAD(SUB, ADD, MAX) \
	MOVO X3, X8; SUB X0, X8; \
	SUB X9, X7; ADD X10, X7; \
	SUB X12, X4; ADD X13, X4; \
	POR X7, X2; POR X4, X2; \
	MOVO X11, X9; SUB X0, X9; MAX X9, X7; MAX X8, X7; \
	MAX X8, X4; SUB X0, X5; MAX X4, X5; \
	MAX X7, X1; MAX X5, X1; \
	MOVO X3, X4; MOVO X7, X3; MOVO X11, X7

// Step j = BX's profile words and north, 3 ≤ j < n.
#define LOADS \
	MOVQ (DI)(BX*8), X11; PUNPCKLQDQ X5, X11; \
	MOVQ (R8)(BX*8), X9; MOVHPS -16(R12)(BX*8), X9; \
	MOVQ (SI)(BX*8), X10; MOVHPS -16(R11)(BX*8), X10; \
	MOVQ -8(R10)(BX*8), X12; MOVHPS -24(DX)(BX*8), X12; \
	MOVQ -8(R9)(BX*8), X13; MOVHPS -24(AX)(BX*8), X13

// Steps 0, 1 and 2. Step 0 is row i's word 0 alone, max(plus, north -
// gap) as in the portable kernel; step 1 loads no high words (rows i+2
// and i+3 are at columns -1 and -2), step 2 row i+2's word 0 only.
#define PROLOGUE(SUB, ADD, MAX) \
	MOVQ (DI), X7; MOVO X7, X3; SUB X0, X3; \
	MOVQ (SI), X9; MAX X9, X3; POR X9, X2; \
	PXOR X4, X4; PXOR X5, X5; MAX X3, X1; \
	MOVQ 8(DI), X11; PUNPCKLQDQ X5, X11; \
	MOVQ 8(R8), X9; MOVQ 8(SI), X10; \
	MOVQ (R10), X12; MOVQ (R9), X13; \
	QUAD(SUB, ADD, MAX); \
	MOVQ 16(DI), X11; PUNPCKLQDQ X5, X11; \
	MOVQ 16(R8), X9; MOVHPS (R12), X9; \
	MOVQ 16(SI), X10; MOVHPS (R11), X10; \
	MOVQ 8(R10), X12; MOVQ 8(R9), X13; \
	QUAD(SUB, ADD, MAX)

// Steps n, n+1 and n+2, entered with BX = n. Step n zeroes the low half
// of its diagonal (row i-1's last word) and of its row i words; step n+1
// also of a2 and of its row i+1 words; step n+2 computes Y alone, row
// i+3's last word. The high words are read at BX-2 and BX-3 as in LOADS.
#define EPILOGUE(SUB, ADD, MAX) \
	PCMPEQL X14, X14; PSLLO $8, X14; \
	PAND X14, X7; \
	PXOR X11, X11; PUNPCKLQDQ X5, X11; \
	PXOR X9, X9; MOVHPS -16(R12)(BX*8), X9; \
	PXOR X10, X10; MOVHPS -16(R11)(BX*8), X10; \
	MOVQ -8(R10)(BX*8), X12; MOVHPS -24(DX)(BX*8), X12; \
	MOVQ -8(R9)(BX*8), X13; MOVHPS -24(AX)(BX*8), X13; \
	QUAD(SUB, ADD, MAX); \
	MOVHPS X5, -24(DI)(BX*8); \
	PAND X14, X4; \
	PXOR X11, X11; PUNPCKLQDQ X5, X11; \
	PXOR X9, X9; MOVHPS -8(R12)(BX*8), X9; \
	PXOR X10, X10; MOVHPS -8(R11)(BX*8), X10; \
	PXOR X12, X12; MOVHPS -16(DX)(BX*8), X12; \
	PXOR X13, X13; MOVHPS -16(AX)(BX*8), X13; \
	QUAD(SUB, ADD, MAX); \
	MOVHPS X5, -16(DI)(BX*8); \
	MOVO X3, X8; SUB X0, X8; \
	PAND X14, X4; \
	PXOR X12, X12; MOVHPS -8(DX)(BX*8), X12; \
	PXOR X13, X13; MOVHPS -8(AX)(BX*8), X13; \
	SUB X12, X4; ADD X13, X4; POR X4, X2; \
	MAX X8, X4; SUB X0, X5; MAX X4, X5; \
	MOVHPS X5, -8(DI)(BX*8); \
	MAX X5, X1

// func rowQuad8SSE2(row, plusA, minusA, plusB, minusB, plusC, minusC, plusD, minusD *uint64, n int, gapV, best, sat uint64) (newBest, newSat uint64)
TEXT ·rowQuad8SSE2(SB), NOSPLIT, $0-120
	MOVQ row+0(FP), DI
	MOVQ plusA+8(FP), SI
	MOVQ minusA+16(FP), R8
	MOVQ plusB+24(FP), R9
	MOVQ minusB+32(FP), R10
	MOVQ plusC+40(FP), R11
	MOVQ minusC+48(FP), R12
	MOVQ plusD+56(FP), AX
	MOVQ minusD+64(FP), DX
	MOVQ n+72(FP), CX
	MOVQ gapV+80(FP), X0
	PUNPCKLQDQ X0, X0
	MOVQ best+88(FP), X1
	MOVQ sat+96(FP), X2
	PROLOGUE(PSUBUSB, PADDUSB, PMAXUB)
	MOVQ $3, BX

loop8:
	LOADS
	QUAD(PSUBUSB, PADDUSB, PMAXUB)
	MOVHPS X5, -24(DI)(BX*8)
	INCQ BX
	CMPQ BX, CX
	JLT loop8

	EPILOGUE(PSUBUSB, PADDUSB, PMAXUB)
	PSHUFD $0xEE, X1, X9
	PMAXUB X9, X1
	PSHUFD $0xEE, X2, X9
	POR X9, X2
	MOVQ X1, newBest+104(FP)
	MOVQ X2, newSat+112(FP)
	RET

// func rowQuad16SSE2(row, plusA, minusA, plusB, minusB, plusC, minusC, plusD, minusD *uint64, n int, gapV, best, sat uint64) (newBest, newSat uint64)
//
// rowQuad8SSE2 for 4 uint16 lanes. SSE2 has no unsigned word maximum;
// the signed PMAXSW is the unsigned one on clean lanes (≤ 32767), and a
// lane holding more has set its guard bit in sat already.
TEXT ·rowQuad16SSE2(SB), NOSPLIT, $0-120
	MOVQ row+0(FP), DI
	MOVQ plusA+8(FP), SI
	MOVQ minusA+16(FP), R8
	MOVQ plusB+24(FP), R9
	MOVQ minusB+32(FP), R10
	MOVQ plusC+40(FP), R11
	MOVQ minusC+48(FP), R12
	MOVQ plusD+56(FP), AX
	MOVQ minusD+64(FP), DX
	MOVQ n+72(FP), CX
	MOVQ gapV+80(FP), X0
	PUNPCKLQDQ X0, X0
	MOVQ best+88(FP), X1
	MOVQ sat+96(FP), X2
	PROLOGUE(PSUBUSW, PADDUSW, PMAXSW)
	MOVQ $3, BX

loop16:
	LOADS
	QUAD(PSUBUSW, PADDUSW, PMAXSW)
	MOVHPS X5, -24(DI)(BX*8)
	INCQ BX
	CMPQ BX, CX
	JLT loop16

	EPILOGUE(PSUBUSW, PADDUSW, PMAXSW)
	PSHUFD $0xEE, X1, X9
	PMAXSW X9, X1
	PSHUFD $0xEE, X2, X9
	POR X9, X2
	MOVQ X1, newBest+104(FP)
	MOVQ X2, newSat+112(FP)
	RET
