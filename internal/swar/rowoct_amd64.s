#include "textflag.h"

// The AVX2 eight-row kernels: rows i…i+7 of the packed recurrence in one
// skewed pass over the same uint64 row and profile words the portable
// two-row kernels (rowPair8Go, rowPair16Go in swar.go) read. The step at
// word j computes, one row pair per qword of a YMM register,
//
//	X = [row i @ j     | row i+2 @ j-2 | row i+4 @ j-4 | row i+6 @ j-6]
//	Y = [row i+1 @ j-1 | row i+3 @ j-3 | row i+5 @ j-5 | row i+7 @ j-7]
//
// so qword k runs the portable kernel's two-row schedule 2k words behind
// qword 0, with row i+2k-1 — Y's qword k-1, never stored — as its row
// above. Y's north and diagonal are X's last two values in the same
// qword; X's north is the last Y rotated up one qword (VPERMQ) with row
// i-1's word j blended into qword 0, and its diagonal is the last north.
// The rotation brings Y's top qword, row i+7 at j-8, round to qword 0,
// where it is stored at row[j-8] — eight steps after row i-1's word was
// read there — before the blend. Each guard-bit op of the portable
// kernel is one saturating lane op here: SubClamp → VPSUBUS, the
// diagonal's plain add → VPADDUS, max8/max16 → VPMAXUB/VPMAXUW,
// sat |= da|db → two VPOR. Each profile operand is four VPBROADCASTQ
// loads and three VPBLENDDs.
//
// Registers, as the macros name them:
//	Y0 gap   Y1 best   Y2 sat   Y5 Y (the last Y)
//	Y3, Y4, Y7, Y11 the last X, the X before it (then db), X's diagonal
//	(then da, then the new X) and X's north, renamed every step (OCT)
//	Y6, Y8 temporaries   Y9, Y10 X's minus and plus words   Y12, Y13 Y's
//	Y14 the rotated Y, a broadcast word
//	SI, R8, R9, R10, R11, R12, R13, AX the plus rows of rows i…i+7, row
//	i+k's moved back k words (the skew), so word j of every base is the
//	word its qword reads at step j
//	BX j   DX j + stride (minus rows sit stride words after plus rows)
//	DI row   CX n
//
// Steps 0…7 and n…n+6 are the skew's prologue and epilogue, where some
// qwords lie outside the row; their profile words are never loaded.
// Such a qword gets plus 0 and minus all-ones (PAD), so its diagonal
// term clamp(d - minus) + plus is 0 whatever d holds. A prologue qword
// computes a border cell: its north, diagonal and west are border cells
// too (the registers start at 0), so it is 0 and ORs nothing into sat.
// An epilogue qword computes a cell past the row's end: its diagonal
// term is 0, and its north (0 in qword 0) and west are cells of the same
// rows, so its value is at most a cell already folded into best. No
// cell inside the row reads one — their north, diagonal and west
// columns are all inside it — and none is stored. The callers
// (rowoct_amd64.go) check n ≥ 8, that every profile row holds n words
// and that each minus row sits stride words after its plus row; nothing
// here does.

// OCT is one step, given the profile words Y9, Y10, Y12, Y13 and the
// north in N: the diagonal terms da (in D) and db (in A2), sat, the new
// X = max(da, max(N, XP) - gap) into D and Y = max(db, max(XP, Y) - gap)
// into Y5 — a saturating subtract of a constant commutes with max, so
// each is the portable kernel's three-way maximum — and best, which
// folds max(XP, Y), the last X and Y. The next step takes the registers
// renamed: XP ← D, A2 ← XP, D ← N, N ← A2; four steps bring the names
// back (OCT0…OCT3).
#define OCT(SUB, ADD, MAX, XP, A2, D, N) \
	SUB Y9, D, D; ADD Y10, D, D; \
	SUB Y12, A2, A2; ADD Y13, A2, A2; \
	VPOR D, A2, Y6; VPOR Y6, Y2, Y2; \
	MAX N, XP, Y8; SUB Y0, Y8, Y8; MAX Y8, D, D; \
	MAX Y5, XP, Y9; MAX Y9, Y1, Y1; SUB Y0, Y9, Y9; MAX Y9, A2, Y5

#define OCT0(SUB, ADD, MAX) OCT(SUB, ADD, MAX, Y3, Y4, Y7, Y11)
#define OCT1(SUB, ADD, MAX) OCT(SUB, ADD, MAX, Y7, Y3, Y11, Y4)
#define OCT2(SUB, ADD, MAX) OCT(SUB, ADD, MAX, Y11, Y7, Y4, Y3)
#define OCT3(SUB, ADD, MAX) OCT(SUB, ADD, MAX, Y4, Y11, Y3, Y7)

// RENAME moves OCT0's results back to OCT0's names, for a lone step.
#define RENAME VMOVDQU Y3, Y4; VMOVDQU Y7, Y3; VMOVDQU Y11, Y7

// XL and YL blend the plus and minus words at word j of base R, O bytes
// on, into the qword M selects of X's or Y's profile operands.
#define XL(R, M, O) \
	VPBROADCASTQ O(R)(BX*8), Y14; VPBLENDD M, Y14, Y10, Y10; \
	VPBROADCASTQ O(R)(DX*8), Y14; VPBLENDD M, Y14, Y9, Y9

#define YL(R, M, O) \
	VPBROADCASTQ O(R)(BX*8), Y14; VPBLENDD M, Y14, Y13, Y13; \
	VPBROADCASTQ O(R)(DX*8), Y14; VPBLENDD M, Y14, Y12, Y12

// LOADS is the profile words of a step with every qword inside the row,
// 7 ≤ j < n, O bytes past word BX.
#define LOADS(O) \
	VPBROADCASTQ O(SI)(BX*8), Y10; VPBROADCASTQ O(SI)(DX*8), Y9; \
	XL(R9, $0x0C, O); XL(R11, $0x30, O); XL(R13, $0xC0, O); \
	VPBROADCASTQ O(R8)(BX*8), Y13; VPBROADCASTQ O(R8)(DX*8), Y12; \
	YL(R10, $0x0C, O); YL(R12, $0x30, O); YL(AX, $0xC0, O)

// PAD sets every profile qword to plus 0, minus all-ones: a cell
// outside the row, before the XLs and YLs of the ones inside it.
#define PAD \
	VPXOR Y10, Y10, Y10; VPCMPEQB Y9, Y9, Y9; \
	VPXOR Y13, Y13, Y13; VPCMPEQB Y12, Y12, Y12

// NORTH builds X's north in N at step j < 8: the last Y rotated up one
// qword, row i-1's word j in qword 0. NORTHST does the same at step
// j ≥ 8, O bytes past word BX, first storing the qword the rotation
// brings round, row i+7's word j-8, at S bytes past word BX. NORTHPAD
// is NORTHST past the row's end, with 0 in qword 0.
#define NORTH(N) \
	VPERMQ $0x93, Y5, Y14; \
	VPBROADCASTQ (DI)(BX*8), N; VPBLENDD $0xFC, Y14, N, N

#define NORTHST(N, O, S) \
	VPERMQ $0x93, Y5, Y14; VMOVQ X14, S(DI)(BX*8); \
	VPBROADCASTQ O(DI)(BX*8), N; VPBLENDD $0xFC, Y14, N, N

#define NORTHPAD(N) \
	VPERMQ $0x93, Y5, Y14; VMOVQ X14, -64(DI)(BX*8); \
	VPXOR N, N, N; VPBLENDD $0xFC, Y14, N, N

#define NEXT INCQ BX; INCQ DX

// Steps 0…7: X's qword k is inside the row from step 2k on, Y's from
// step 2k+1 on, and nothing is stored yet.
#define PROLOGUE(SUB, ADD, MAX) \
	PAD; XL(SI, $0x03, 0); \
	NORTH(Y11); OCT0(SUB, ADD, MAX); NEXT; \
	PAD; XL(SI, $0x03, 0); YL(R8, $0x03, 0); \
	NORTH(Y4); OCT1(SUB, ADD, MAX); NEXT; \
	PAD; XL(SI, $0x03, 0); XL(R9, $0x0C, 0); YL(R8, $0x03, 0); \
	NORTH(Y3); OCT2(SUB, ADD, MAX); NEXT; \
	PAD; XL(SI, $0x03, 0); XL(R9, $0x0C, 0); YL(R8, $0x03, 0); YL(R10, $0x0C, 0); \
	NORTH(Y7); OCT3(SUB, ADD, MAX); NEXT; \
	PAD; XL(SI, $0x03, 0); XL(R9, $0x0C, 0); XL(R11, $0x30, 0); YL(R8, $0x03, 0); YL(R10, $0x0C, 0); \
	NORTH(Y11); OCT0(SUB, ADD, MAX); NEXT; \
	PAD; XL(SI, $0x03, 0); XL(R9, $0x0C, 0); XL(R11, $0x30, 0); YL(R8, $0x03, 0); YL(R10, $0x0C, 0); YL(R12, $0x30, 0); \
	NORTH(Y4); OCT1(SUB, ADD, MAX); NEXT; \
	PAD; XL(SI, $0x03, 0); XL(R9, $0x0C, 0); XL(R11, $0x30, 0); XL(R13, $0xC0, 0); YL(R8, $0x03, 0); YL(R10, $0x0C, 0); YL(R12, $0x30, 0); \
	NORTH(Y3); OCT2(SUB, ADD, MAX); NEXT; \
	LOADS(0); NORTH(Y7); OCT3(SUB, ADD, MAX); NEXT

// Steps 8 ≤ j < n: four a pass (BX steps by 4), then one at a time.
#define BODY(SUB, ADD, MAX, quads, single, ones, epilogue) \
	SUBQ $3, CX; \
	CMPQ BX, CX; \
	JGE  single; \
quads: \
	LOADS(0); NORTHST(Y11, 0, -64); OCT0(SUB, ADD, MAX); \
	LOADS(8); NORTHST(Y4, 8, -56); OCT1(SUB, ADD, MAX); \
	LOADS(16); NORTHST(Y3, 16, -48); OCT2(SUB, ADD, MAX); \
	LOADS(24); NORTHST(Y7, 24, -40); OCT3(SUB, ADD, MAX); \
	ADDQ $4, BX; ADDQ $4, DX; \
	CMPQ BX, CX; \
	JLT  quads; \
single: \
	ADDQ $3, CX; \
	CMPQ BX, CX; \
	JGE  epilogue; \
ones: \
	LOADS(0); NORTHST(Y11, 0, -64); OCT0(SUB, ADD, MAX); RENAME; NEXT; \
	CMPQ BX, CX; \
	JLT  ones

// Steps n…n+6, entered with BX = n: X's qword k is past the row's end
// from step n+2k on, Y's from step n+2k+1 on. Then row i+7's last word,
// and the last X and Y into best.
#define EPILOGUE(SUB, ADD, MAX) \
	PAD; XL(R9, $0x0C, 0); XL(R11, $0x30, 0); XL(R13, $0xC0, 0); YL(R8, $0x03, 0); YL(R10, $0x0C, 0); YL(R12, $0x30, 0); YL(AX, $0xC0, 0); \
	NORTHPAD(Y11); OCT0(SUB, ADD, MAX); NEXT; \
	PAD; XL(R9, $0x0C, 0); XL(R11, $0x30, 0); XL(R13, $0xC0, 0); YL(R10, $0x0C, 0); YL(R12, $0x30, 0); YL(AX, $0xC0, 0); \
	NORTHPAD(Y4); OCT1(SUB, ADD, MAX); NEXT; \
	PAD; XL(R11, $0x30, 0); XL(R13, $0xC0, 0); YL(R10, $0x0C, 0); YL(R12, $0x30, 0); YL(AX, $0xC0, 0); \
	NORTHPAD(Y3); OCT2(SUB, ADD, MAX); NEXT; \
	PAD; XL(R11, $0x30, 0); XL(R13, $0xC0, 0); YL(R12, $0x30, 0); YL(AX, $0xC0, 0); \
	NORTHPAD(Y7); OCT3(SUB, ADD, MAX); NEXT; \
	PAD; XL(R13, $0xC0, 0); YL(R12, $0x30, 0); YL(AX, $0xC0, 0); \
	NORTHPAD(Y11); OCT0(SUB, ADD, MAX); NEXT; \
	PAD; XL(R13, $0xC0, 0); YL(AX, $0xC0, 0); \
	NORTHPAD(Y4); OCT1(SUB, ADD, MAX); NEXT; \
	PAD; YL(AX, $0xC0, 0); \
	NORTHPAD(Y3); OCT2(SUB, ADD, MAX); \
	VPERMQ $0x93, Y5, Y14; VMOVQ X14, -56(DI)(BX*8); \
	MAX Y4, Y1, Y1; MAX Y5, Y1, Y1

// ENTRY loads the arguments and moves row i+k's base back k words.
#define ENTRY \
	MOVQ row+0(FP), DI; \
	MOVQ p0+8(FP), SI; \
	MOVQ p1+16(FP), R8; SUBQ $8, R8; \
	MOVQ p2+24(FP), R9; SUBQ $16, R9; \
	MOVQ p3+32(FP), R10; SUBQ $24, R10; \
	MOVQ p4+40(FP), R11; SUBQ $32, R11; \
	MOVQ p5+48(FP), R12; SUBQ $40, R12; \
	MOVQ p6+56(FP), R13; SUBQ $48, R13; \
	MOVQ p7+64(FP), AX; SUBQ $56, AX; \
	MOVQ stride+72(FP), DX; \
	MOVQ n+80(FP), CX; \
	XORQ BX, BX; \
	VPBROADCASTQ gapV+88(FP), Y0; \
	VMOVQ best+96(FP), X1; \
	VMOVQ sat+104(FP), X2; \
	VPXOR Y3, Y3, Y3; VPXOR Y4, Y4, Y4; VPXOR Y5, Y5, Y5; VPXOR Y7, Y7, Y7

// FOLD folds best's and sat's four qwords into the results.
#define FOLD(MAX) \
	VEXTRACTI128 $1, Y1, X9; MAX X9, X1, X1; VPSHUFD $0xEE, X1, X9; MAX X9, X1, X1; \
	VEXTRACTI128 $1, Y2, X9; VPOR X9, X2, X2; VPSHUFD $0xEE, X2, X9; VPOR X9, X2, X2; \
	VMOVQ X1, newBest+112(FP); \
	VMOVQ X2, newSat+120(FP); \
	VZEROUPPER

// func rowOct8AVX2(row, p0, p1, p2, p3, p4, p5, p6, p7 *uint64, stride, n int, gapV, best, sat uint64) (newBest, newSat uint64)
TEXT ·rowOct8AVX2(SB), NOSPLIT, $0-128
	ENTRY
	PROLOGUE(VPSUBUSB, VPADDUSB, VPMAXUB)
	BODY(VPSUBUSB, VPADDUSB, VPMAXUB, quads8, single8, ones8, epilogue8)
epilogue8:
	EPILOGUE(VPSUBUSB, VPADDUSB, VPMAXUB)
	FOLD(VPMAXUB)
	RET

// func rowOct16AVX2(row, p0, p1, p2, p3, p4, p5, p6, p7 *uint64, stride, n int, gapV, best, sat uint64) (newBest, newSat uint64)
//
// rowOct8AVX2 for 4 uint16 lanes.
TEXT ·rowOct16AVX2(SB), NOSPLIT, $0-128
	ENTRY
	PROLOGUE(VPSUBUSW, VPADDUSW, VPMAXUW)
	BODY(VPSUBUSW, VPADDUSW, VPMAXUW, quads16, single16, ones16, epilogue16)
epilogue16:
	EPILOGUE(VPSUBUSW, VPADDUSW, VPMAXUW)
	FOLD(VPMAXUW)
	RET

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
