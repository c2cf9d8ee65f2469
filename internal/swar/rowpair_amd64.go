package swar

// rowPair8 is rowPair8Go on SSE2's saturating byte ops (rowpair_amd64.s):
// the same words in and out, and on every clean lane the same cells,
// maximum and guard bits (DESIGN §5.6). SSE2 is part of every amd64
// CPU, so there is nothing to detect. The checks the assembly leaves
// out happen here: n ≥ 1, and every profile row holds n words.
func rowPair8(row, plusA, minusA, plusB, minusB []uint64, gapV, best, sat uint64) (uint64, uint64) {
	n := len(row)
	plusA, minusA = plusA[:n], minusA[:n]
	plusB, minusB = plusB[:n], minusB[:n]
	return rowPair8SSE2(&row[0], &plusA[0], &minusA[0], &plusB[0], &minusB[0], n, gapV, best, sat)
}

// rowPair16 is rowPair16Go on SSE2's saturating word ops.
func rowPair16(row, plusA, minusA, plusB, minusB []uint64, gapV, best, sat uint64) (uint64, uint64) {
	n := len(row)
	plusA, minusA = plusA[:n], minusA[:n]
	plusB, minusB = plusB[:n], minusB[:n]
	return rowPair16SSE2(&row[0], &plusA[0], &minusA[0], &plusB[0], &minusB[0], n, gapV, best, sat)
}

//go:noescape
func rowPair8SSE2(row, plusA, minusA, plusB, minusB *uint64, n int, gapV, best, sat uint64) (newBest, newSat uint64)

//go:noescape
func rowPair16SSE2(row, plusA, minusA, plusB, minusB *uint64, n int, gapV, best, sat uint64) (newBest, newSat uint64)
