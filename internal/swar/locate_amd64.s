//go:build amd64 && !purego

#include "textflag.h"

// The AVX lane fill of a locate pass (locate.go): columns 1…n of one
// word of four lanes, eight columns a step, in both arrays the pass
// reads — the target codes and row 0, the seeds. A step loads eight
// bases and eight seed values per lane and transposes them with
// unpacks, so that each 8-byte word holds one column of the four lanes:
//
//	bytes  [a0 b0 a1 b1 …] [c0 d0 c1 d1 …]   VPUNPCKLBW
//	       [a0 b0 c0 d0 a1 b1 c1 d1 …]       VPUNPCKLWD, VPUNPCKHWD
//	words  [a0 b0 c0 d0 | a1 b1 c1 d1]       VPUNPCKLWD, VPUNPCKL/HDQ
//
// A base becomes its lane code LaneMax + bio.BaseCode on the bytes,
// before the words are widened: 4 − 4·(b = 'A') − 3·(b = 'C') −
// 2·(b = 'G') − (b = 'T'), every other byte 4, the code of bio.PadCode.
// Each word is then masked to the live lanes (AND live, OR dead), and
// the seed words, masked, are ORed into the returned accumulator.
//
// Registers:
//	X15 'A'  X14 'C'  X13 'G'  X12 'T'  (every byte)
//	X11 0xFC X10 0xFD X9 0xFE  X8 4     (every byte)
//	X7 LaneMax (every word)  X6 live  X5 dead  X4 the seeds ORed
//	X0…X3 temporaries
//	R8…R11 bases of lanes 0…3   R12, R13, AX, BX seeds of lanes 0…3
//	DI codes   SI prev   CX the column   DX 32·column

// BROADCAST puts the 64-bit constant c in both halves of reg.
#define BROADCAST(c, reg) \
	MOVQ $c, DX; \
	VMOVQ DX, reg; \
	VPUNPCKLQDQ reg, reg, reg

// CODE maps the sixteen bases of V to their BaseCode bytes, with X1 and
// X3 as temporaries.
#define CODE(V) \
	VPCMPEQB X15, V, X1; \
	VPAND X11, X1, X1; \
	VPADDB X1, X8, X3; \
	VPCMPEQB X14, V, X1; \
	VPAND X10, X1, X1; \
	VPADDB X1, X3, X3; \
	VPCMPEQB X13, V, X1; \
	VPAND X9, X1, X1; \
	VPADDB X1, X3, X3; \
	VPCMPEQB X12, V, X1; \
	VPADDB X1, X3, V

// CODES2 widens the low two columns of byte codes in V to lane codes and
// stores them at column offsets OFF and OFF+32 of the codes.
#define CODES2(V, OFF) \
	VPMOVZXBW V, X1; \
	VPADDW X7, X1, X1; \
	VPAND X6, X1, X1; \
	VPOR X5, X1, X1; \
	VMOVQ X1, OFF(DI)(DX*1); \
	VMOVHPS X1, OFF+32(DI)(DX*1)

// SEEDS2 masks the two columns of seed words in V, ORs them into X4 and
// stores them at column offsets OFF and OFF+32 of row 0.
#define SEEDS2(V, OFF) \
	VPAND X6, V, V; \
	VPOR V, X4, X4; \
	VPOR X5, V, V; \
	VMOVQ V, OFF(SI)(DX*1); \
	VMOVHPS V, OFF+32(SI)(DX*1)

// SEEDS4 transposes four columns of seeds, from byte offset OFF of each
// lane's seed, and stores them at column offsets COL…COL+96 of row 0.
#define SEEDS4(OFF, COL) \
	VMOVQ OFF(R12)(CX*2), X0; \
	VMOVQ OFF(R13)(CX*2), X1; \
	VPUNPCKLWD X1, X0, X0; \
	VMOVQ OFF(AX)(CX*2), X1; \
	VMOVQ OFF(BX)(CX*2), X2; \
	VPUNPCKLWD X2, X1, X1; \
	VPUNPCKLDQ X1, X0, X2; \
	VPUNPCKHDQ X1, X0, X0; \
	SEEDS2(X2, COL); \
	SEEDS2(X0, COL+64)

// func laneFill(codes, prev *uint64, t *[4]*byte, s *[4]*uint16, n int, live, dead uint64) (or uint64)
TEXT ·laneFill(SB), NOSPLIT, $0-64
	BROADCAST(0x4141414141414141, X15)
	BROADCAST(0x4343434343434343, X14)
	BROADCAST(0x4747474747474747, X13)
	BROADCAST(0x5454545454545454, X12)
	BROADCAST(-0x0303030303030304, X11)
	BROADCAST(-0x0202020202020203, X10)
	BROADCAST(-0x0101010101010102, X9)
	BROADCAST(0x0404040404040404, X8)
	BROADCAST(0x7FF07FF07FF07FF0, X7)
	VMOVQ live+40(FP), X6
	VPUNPCKLQDQ X6, X6, X6
	VMOVQ dead+48(FP), X5
	VPUNPCKLQDQ X5, X5, X5
	VPXOR X4, X4, X4
	MOVQ codes+0(FP), DI
	MOVQ prev+8(FP), SI
	MOVQ t+16(FP), BX
	MOVQ 0(BX), R8
	MOVQ 8(BX), R9
	MOVQ 16(BX), R10
	MOVQ 24(BX), R11
	MOVQ s+24(FP), BX
	MOVQ 0(BX), R12
	MOVQ 8(BX), R13
	MOVQ 16(BX), AX
	MOVQ 24(BX), BX
	XORQ CX, CX
	XORQ DX, DX
	CMPQ CX, n+32(FP)
	JGE  done

loop:
	VMOVQ (R8)(CX*1), X0
	VMOVQ (R9)(CX*1), X1
	VPUNPCKLBW X1, X0, X0
	VMOVQ (R10)(CX*1), X1
	VMOVQ (R11)(CX*1), X2
	VPUNPCKLBW X2, X1, X1
	VPUNPCKHWD X1, X0, X2
	VPUNPCKLWD X1, X0, X0
	CODE(X0)
	CODE(X2)
	CODES2(X0, 0)
	VPSRLDQ $8, X0, X0
	CODES2(X0, 64)
	CODES2(X2, 128)
	VPSRLDQ $8, X2, X2
	CODES2(X2, 192)
	SEEDS4(0, 0)
	SEEDS4(8, 128)
	ADDQ $8, CX
	ADDQ $256, DX
	CMPQ CX, n+32(FP)
	JLT  loop

done:
	VPSRLDQ $8, X4, X0
	VPOR X0, X4, X4
	VMOVQ X4, or+56(FP)
	VZEROUPPER
	RET
