//go:build amd64 && !purego

#include "textflag.h"

// The AVX2 begin-sweep row (beginrow.go): sixteen reverse sweeps, one
// per int16 lane of a YMM register, one column per step. A step at
// column q is
//
//	m    = (codes[q] == query)            VPCMPEQW
//	diag = max(d + (m ? match : mismatch), clamp)
//	                                      VPBLENDVB, VPADDSW, VPMAXSW
//	v    = max(diag, max(n, w) + gap)     VPMAXSW, VPADDSW, VPMAXSW
//	c    = min(v, codes[q])               VPMINSW: a dead column kills
//	cur[q] = c < floor ? dead : c         VPCMPGTW, VPBLENDVB
//
// and top = max(top, cur[q]). The row's reach mask compares top with
// Reach, its over mask with Reach+1 (VPSUBSW of −1, saturating, so a
// stopped lane's 0x7FFF stays out of both). A saturating add of a constant commutes
// with max, so max(n, w) + gap is max(n + gap, w + gap); the lower
// clamp joins the max through the diagonal, off the west chain. The
// west value w carried to the next column is v, before the cap and the
// floor: a value below the floor only makes candidates below it, which
// lose to any live one or are stored dead themselves, so the stored row
// is the clamped recurrence's and the chain from column to column is
// three ops (max, add, max). The west chain past mid is
// max(w + gap, clamp) alone — north and diagonal are dead there; w
// carries the unclamped sum, which is exact because gap ≤ 0 keeps
// clamp + gap under the clamp — and stops at the first column with
// every lane dead.
//
// Registers:
//	Y0 gap   Y1 match   Y2 mismatch   Y3 query codes   Y4 floor
//	Y5 dead  Y6 top     Y7 w          Y8, Y9 d and n, swapped each step
//	Y10 the column's codes   Y11, Y12 temporaries   Y13 clamp
//	DI prev   SI cur   DX codes   R8 the LaneRow
//	BX 32·q   CX 32·mid   R10 32·qmax

// STEP is the step at column BX/32 with d in D, loading n into N, which
// is the next step's d.
#define STEP(D, N) \
	VMOVDQU (DI)(BX*1), N; \
	VMOVDQU (DX)(BX*1), Y10; \
	VPCMPEQW Y10, Y3, Y11; \
	VPBLENDVB Y11, Y1, Y2, Y11; \
	VPADDSW Y11, D, D; \
	VPMAXSW Y13, D, D; \
	VPMAXSW N, Y7, Y7; \
	VPADDSW Y0, Y7, Y7; \
	VPMAXSW D, Y7, Y7; \
	VPMINSW Y10, Y7, Y11; \
	VPCMPGTW Y11, Y4, Y12; \
	VPBLENDVB Y12, Y5, Y11, Y11; \
	VMOVDQU Y11, (SI)(BX*1); \
	VPMAXSW Y11, Y6, Y6; \
	ADDQ $32, BX

// func beginRow16AVX2(prev, cur, codes *uint64, r *LaneRow, lo, mid, qmax int) (end int, reach, over uint32)
TEXT ·beginRow16AVX2(SB), NOSPLIT, $0-72
	MOVQ prev+0(FP), DI
	MOVQ cur+8(FP), SI
	MOVQ codes+16(FP), DX
	MOVQ r+24(FP), R8
	MOVQ lo+32(FP), BX
	MOVQ mid+40(FP), CX
	MOVQ qmax+48(FP), R10
	SHLQ $5, BX
	SHLQ $5, CX
	SHLQ $5, R10
	VMOVDQU 0(R8), Y3
	VMOVDQU 32(R8), Y4
	VMOVDQU 96(R8), Y1
	VMOVDQU 128(R8), Y2
	VMOVDQU 160(R8), Y0
	VMOVDQU 192(R8), Y13
	VPCMPEQW Y5, Y5, Y5
	VPSLLW $15, Y5, Y5
	VMOVDQU Y5, Y6
	VMOVDQU Y5, Y7
	VMOVDQU -32(DI)(BX*1), Y8
	VMOVDQU Y13, -32(SI)(BX*1)

interior:
	STEP(Y8, Y9)
	CMPQ BX, CX
	JGT  chain
	STEP(Y9, Y8)
	CMPQ BX, CX
	JLE  interior

chain:
	CMPQ BX, R10
	JGT  done
	VPADDSW Y0, Y7, Y7
	VMOVDQU (DX)(BX*1), Y10
	VPMAXSW Y13, Y7, Y11
	VPMINSW Y10, Y11, Y11
	VPCMPGTW Y11, Y4, Y12
	VPBLENDVB Y12, Y5, Y11, Y11
	VPCMPEQW Y5, Y11, Y12
	VPMOVMSKB Y12, AX
	CMPL AX, $-1
	JEQ  done
	VMOVDQU Y11, (SI)(BX*1)
	VPMAXSW Y11, Y6, Y6
	ADDQ $32, BX
	JMP  chain

done:
	VMOVDQU Y5, (SI)(BX*1)
	SHRQ $5, BX
	MOVQ BX, end+56(FP)
	VMOVDQU 64(R8), Y12
	VPCMPGTW Y12, Y6, Y11
	VPMOVMSKB Y11, AX
	MOVL AX, reach+64(FP)
	VPCMPEQW Y10, Y10, Y10
	VPSUBSW Y10, Y12, Y12
	VPCMPGTW Y12, Y6, Y11
	VPMOVMSKB Y11, AX
	MOVL AX, over+68(FP)
	VZEROUPPER
	RET
