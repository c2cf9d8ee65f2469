//go:build amd64 && !purego

#include "textflag.h"

// The AVX2 eight-row kernels: rows i…i+7 of the packed recurrence in one
// skewed pass over the same uint64 row and code words the portable
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
// sat |= da|db → two VPOR.
//
// The substitution terms come from a code window: TX(j) = [codes[j] |
// codes[j-2] | codes[j-4] | codes[j-6]], the code words X's qwords read,
// is TX(j-2) rotated up one qword with codes[j] blended into qword 0, and
// Y's window is TX(j-1): one load and two shuffles a step. A VPCMPEQB
// (VPCMPEQW) of a window with the query codes of its rows gives m, all
// ones in every lane whose target code equals the row's query code, and
// then plus = m & Match, minus = ~m & |Mismatch| — the words the
// portable kernels derive with eqMask8 (eqMask16).
//
// Registers, as the macros name them:
//	Y0 gap   Y1 best   Y2 sat   Y5 Y (the last Y)
//	Y3, Y4, Y7, Y11 the last X, the X before it (then db), X's diagonal
//	(then da, then the new X) and X's north, renamed every step (OCT)
//	Y12, Y13 the code windows TX(j) and TX(j-1), renamed every step
//	Y6, Y15 the query codes of X's and Y's rows
//	Y8, Y9, Y10, Y14 temporaries (Y10 and Y9 the plus and minus words)
//	SI codes   DI row   R8 the octCodes (Match at 64, |Mismatch| at 96)
//	BX j   CX n
//
// Steps 0…7 and n…n+6 are the skew's prologue and epilogue, where some
// qwords lie outside the row. Such a qword's window holds all-ones, the
// pad: the windows start all-ones, and the epilogue blends all-ones in
// where it would load past the row's end. No query code is all-ones
// (noMatch is the largest), so a pad qword's plus is 0. A prologue
// qword computes a border cell: its north, diagonal and west are border
// cells too (the registers start at 0), so its diagonal term is
// clamp(0 - minus) + 0 = 0, it is 0 and ORs nothing into sat. An
// epilogue qword computes a cell past the row's end, whose diagonal may
// be a cell of the row above inside the row; there minus is made
// all-ones (a prefix mask per step, prefix<>), so its diagonal term is 0
// whatever the diagonal holds — a minus of |Mismatch| alone would let a
// row value the pass never folded into best reach it. Its north (0 in
// qword 0) and west are then cells of the same rows, so its value is at
// most a cell already folded into best. No cell inside the row reads
// one — their north, diagonal and west columns are all inside it — and
// none is stored. The callers (rowoct_amd64.go) check n ≥ 8 and that
// codes holds n words; nothing here does.

// prefix<>+32k, k = 0…4: all-ones in the k low qwords, 0 above.
DATA prefix<>+0(SB)/8, $0
DATA prefix<>+8(SB)/8, $0
DATA prefix<>+16(SB)/8, $0
DATA prefix<>+24(SB)/8, $0
DATA prefix<>+32(SB)/8, $-1
DATA prefix<>+40(SB)/8, $0
DATA prefix<>+48(SB)/8, $0
DATA prefix<>+56(SB)/8, $0
DATA prefix<>+64(SB)/8, $-1
DATA prefix<>+72(SB)/8, $-1
DATA prefix<>+80(SB)/8, $0
DATA prefix<>+88(SB)/8, $0
DATA prefix<>+96(SB)/8, $-1
DATA prefix<>+104(SB)/8, $-1
DATA prefix<>+112(SB)/8, $-1
DATA prefix<>+120(SB)/8, $0
DATA prefix<>+128(SB)/8, $-1
DATA prefix<>+136(SB)/8, $-1
DATA prefix<>+144(SB)/8, $-1
DATA prefix<>+152(SB)/8, $-1
GLOBL prefix<>(SB), RODATA|NOPTR, $160

// WIN moves the code window W from TX(j-2) to TX(j): rotated up one
// qword, with codes[j], O bytes past word BX, in qword 0. WINPAD does
// the same past the row's end, with the all-ones pad in qword 0.
#define WIN(W, O) \
	VPERMQ $0x93, W, W; VPBROADCASTQ O(SI)(BX*8), Y8; VPBLENDD $0x03, Y8, W, W

#define WINPAD(W) \
	VPERMQ $0x93, W, W; VPOR prefix<>+32(SB), W, W

// SUBST sets Y10 and Y9 to the plus and minus words of the rows whose
// query codes Q holds against the window W.
#define SUBST(CMP, W, Q) \
	CMP Q, W, Y9; VPAND 64(R8), Y9, Y10; VPANDN 96(R8), Y9, Y9

// DIAG turns the diagonal in D into the diagonal term clamp(D - minus) +
// plus.
#define DIAG(SUB, ADD, D) \
	SUB Y9, D, D; ADD Y10, D, D

// REC is the rest of a step, given the diagonal terms da (in D) and db
// (in A2) and the north in N: sat, the new X = max(da, max(N, XP) - gap)
// into D and Y = max(db, max(XP, Y) - gap) into Y5 — a saturating
// subtract of a constant commutes with max, so each is the portable
// kernel's three-way maximum — and best, which folds max(XP, Y), the
// last X and Y.
#define REC(SUB, MAX, XP, A2, D, N) \
	VPOR D, Y2, Y2; VPOR A2, Y2, Y2; \
	MAX N, XP, Y8; SUB Y0, Y8, Y8; MAX Y8, D, D; \
	MAX Y5, XP, Y9; MAX Y9, Y1, Y1; SUB Y0, Y9, Y9; MAX Y9, A2, Y5

// OCT is one step, given the windows WX = TX(j), WY = TX(j-1) and the
// north in N. OCTPAD is an epilogue step, whose minus words are ORed
// with the prefix masks PX and PY of X's and Y's qwords past the row's
// end. The next step takes the registers renamed: XP ← D, A2 ← XP,
// D ← N, N ← A2, WX ↔ WY; four steps bring the names back
// (OCT0…OCT3).
#define OCT(SUB, ADD, MAX, CMP, XP, A2, D, N, WX, WY) \
	SUBST(CMP, WX, Y6); DIAG(SUB, ADD, D); \
	SUBST(CMP, WY, Y15); DIAG(SUB, ADD, A2); \
	REC(SUB, MAX, XP, A2, D, N)

#define OCTPAD(SUB, ADD, MAX, CMP, XP, A2, D, N, WX, WY, PX, PY) \
	SUBST(CMP, WX, Y6); VPOR PX, Y9, Y9; DIAG(SUB, ADD, D); \
	SUBST(CMP, WY, Y15); VPOR PY, Y9, Y9; DIAG(SUB, ADD, A2); \
	REC(SUB, MAX, XP, A2, D, N)

#define OCT0(SUB, ADD, MAX, CMP) OCT(SUB, ADD, MAX, CMP, Y3, Y4, Y7, Y11, Y12, Y13)
#define OCT1(SUB, ADD, MAX, CMP) OCT(SUB, ADD, MAX, CMP, Y7, Y3, Y11, Y4, Y13, Y12)
#define OCT2(SUB, ADD, MAX, CMP) OCT(SUB, ADD, MAX, CMP, Y11, Y7, Y4, Y3, Y12, Y13)
#define OCT3(SUB, ADD, MAX, CMP) OCT(SUB, ADD, MAX, CMP, Y4, Y11, Y3, Y7, Y13, Y12)

#define OCTPAD0(SUB, ADD, MAX, CMP, PX, PY) OCTPAD(SUB, ADD, MAX, CMP, Y3, Y4, Y7, Y11, Y12, Y13, PX, PY)
#define OCTPAD1(SUB, ADD, MAX, CMP, PX, PY) OCTPAD(SUB, ADD, MAX, CMP, Y7, Y3, Y11, Y4, Y13, Y12, PX, PY)
#define OCTPAD2(SUB, ADD, MAX, CMP, PX, PY) OCTPAD(SUB, ADD, MAX, CMP, Y11, Y7, Y4, Y3, Y12, Y13, PX, PY)
#define OCTPAD3(SUB, ADD, MAX, CMP, PX, PY) OCTPAD(SUB, ADD, MAX, CMP, Y4, Y11, Y3, Y7, Y13, Y12, PX, PY)

// RENAME moves OCT0's results back to OCT0's names, for a lone step.
#define RENAME \
	VMOVDQU Y3, Y4; VMOVDQU Y7, Y3; VMOVDQU Y11, Y7; \
	VMOVDQU Y12, Y8; VMOVDQU Y13, Y12; VMOVDQU Y8, Y13

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

// Steps 0…7: X's qword k is inside the row from step 2k on, Y's from
// step 2k+1 on, and nothing is stored yet.
#define PROLOGUE(SUB, ADD, MAX, CMP) \
	WIN(Y12, 0); NORTH(Y11); OCT0(SUB, ADD, MAX, CMP); INCQ BX; \
	WIN(Y13, 0); NORTH(Y4); OCT1(SUB, ADD, MAX, CMP); INCQ BX; \
	WIN(Y12, 0); NORTH(Y3); OCT2(SUB, ADD, MAX, CMP); INCQ BX; \
	WIN(Y13, 0); NORTH(Y7); OCT3(SUB, ADD, MAX, CMP); INCQ BX; \
	WIN(Y12, 0); NORTH(Y11); OCT0(SUB, ADD, MAX, CMP); INCQ BX; \
	WIN(Y13, 0); NORTH(Y4); OCT1(SUB, ADD, MAX, CMP); INCQ BX; \
	WIN(Y12, 0); NORTH(Y3); OCT2(SUB, ADD, MAX, CMP); INCQ BX; \
	WIN(Y13, 0); NORTH(Y7); OCT3(SUB, ADD, MAX, CMP); INCQ BX

// Steps 8 ≤ j < n: four a pass (BX steps by 4), then one at a time.
#define BODY(SUB, ADD, MAX, CMP, quads, single, ones, epilogue) \
	SUBQ $3, CX; \
	CMPQ BX, CX; \
	JGE  single; \
quads: \
	WIN(Y12, 0); NORTHST(Y11, 0, -64); OCT0(SUB, ADD, MAX, CMP); \
	WIN(Y13, 8); NORTHST(Y4, 8, -56); OCT1(SUB, ADD, MAX, CMP); \
	WIN(Y12, 16); NORTHST(Y3, 16, -48); OCT2(SUB, ADD, MAX, CMP); \
	WIN(Y13, 24); NORTHST(Y7, 24, -40); OCT3(SUB, ADD, MAX, CMP); \
	ADDQ $4, BX; \
	CMPQ BX, CX; \
	JLT  quads; \
single: \
	ADDQ $3, CX; \
	CMPQ BX, CX; \
	JGE  epilogue; \
ones: \
	WIN(Y12, 0); NORTHST(Y11, 0, -64); OCT0(SUB, ADD, MAX, CMP); RENAME; INCQ BX; \
	CMPQ BX, CX; \
	JLT  ones

// Steps n+t, t = 0…6, entered with BX = n: X's qwords 0…t/2 and Y's
// below (t+1)/2 are past the row's end. Then row i+7's last word, and
// the last X and Y into best.
#define EPILOGUE(SUB, ADD, MAX, CMP) \
	WINPAD(Y12); NORTHPAD(Y11); OCTPAD0(SUB, ADD, MAX, CMP, prefix<>+32(SB), prefix<>+0(SB)); INCQ BX; \
	WINPAD(Y13); NORTHPAD(Y4); OCTPAD1(SUB, ADD, MAX, CMP, prefix<>+32(SB), prefix<>+32(SB)); INCQ BX; \
	WINPAD(Y12); NORTHPAD(Y3); OCTPAD2(SUB, ADD, MAX, CMP, prefix<>+64(SB), prefix<>+32(SB)); INCQ BX; \
	WINPAD(Y13); NORTHPAD(Y7); OCTPAD3(SUB, ADD, MAX, CMP, prefix<>+64(SB), prefix<>+64(SB)); INCQ BX; \
	WINPAD(Y12); NORTHPAD(Y11); OCTPAD0(SUB, ADD, MAX, CMP, prefix<>+96(SB), prefix<>+64(SB)); INCQ BX; \
	WINPAD(Y13); NORTHPAD(Y4); OCTPAD1(SUB, ADD, MAX, CMP, prefix<>+96(SB), prefix<>+96(SB)); INCQ BX; \
	WINPAD(Y12); NORTHPAD(Y3); OCTPAD2(SUB, ADD, MAX, CMP, prefix<>+128(SB), prefix<>+96(SB)); \
	VPERMQ $0x93, Y5, Y14; VMOVQ X14, -56(DI)(BX*8); \
	MAX Y4, Y1, Y1; MAX Y5, Y1, Y1

// ENTRY loads the arguments; the code windows start as the pad.
#define ENTRY \
	MOVQ row+0(FP), DI; \
	MOVQ codes+8(FP), SI; \
	MOVQ c+16(FP), R8; \
	MOVQ n+24(FP), CX; \
	XORQ BX, BX; \
	VPBROADCASTQ gapV+32(FP), Y0; \
	VMOVQ best+40(FP), X1; \
	VMOVQ sat+48(FP), X2; \
	VMOVDQU 0(R8), Y6; VMOVDQU 32(R8), Y15; \
	VPCMPEQB Y12, Y12, Y12; VPCMPEQB Y13, Y13, Y13; \
	VPXOR Y3, Y3, Y3; VPXOR Y4, Y4, Y4; VPXOR Y5, Y5, Y5; VPXOR Y7, Y7, Y7

// FOLD folds best's and sat's four qwords into the results.
#define FOLD(MAX) \
	VEXTRACTI128 $1, Y1, X9; MAX X9, X1, X1; VPSHUFD $0xEE, X1, X9; MAX X9, X1, X1; \
	VEXTRACTI128 $1, Y2, X9; VPOR X9, X2, X2; VPSHUFD $0xEE, X2, X9; VPOR X9, X2, X2; \
	VMOVQ X1, newBest+56(FP); \
	VMOVQ X2, newSat+64(FP); \
	VZEROUPPER

// func rowOct8AVX2(row, codes *uint64, c *octCodes, n int, gapV, best, sat uint64) (newBest, newSat uint64)
TEXT ·rowOct8AVX2(SB), NOSPLIT, $0-72
	ENTRY
	PROLOGUE(VPSUBUSB, VPADDUSB, VPMAXUB, VPCMPEQB)
	BODY(VPSUBUSB, VPADDUSB, VPMAXUB, VPCMPEQB, quads8, single8, ones8, epilogue8)
epilogue8:
	EPILOGUE(VPSUBUSB, VPADDUSB, VPMAXUB, VPCMPEQB)
	FOLD(VPMAXUB)
	RET

// func rowOct16AVX2(row, codes *uint64, c *octCodes, n int, gapV, best, sat uint64) (newBest, newSat uint64)
//
// rowOct8AVX2 for 4 uint16 lanes.
TEXT ·rowOct16AVX2(SB), NOSPLIT, $0-72
	ENTRY
	PROLOGUE(VPSUBUSW, VPADDUSW, VPMAXUW, VPCMPEQW)
	BODY(VPSUBUSW, VPADDUSW, VPMAXUW, VPCMPEQW, quads16, single16, ones16, epilogue16)
epilogue16:
	EPILOGUE(VPSUBUSW, VPADDUSW, VPMAXUW, VPCMPEQW)
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
