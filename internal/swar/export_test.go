package swar

import "genomedsm/internal/bio"

// The differential tests live in the external package swar_test (they
// import align, which imports swar); this file hands them the
// unexported pieces of the two-row kernel.

// Max8 and Max16 are the in-kernel maxima.
var Max8, Max16 = max8, max16

// ScanPackedRow is scanPacked without a Bound, returning the row buffer
// it left behind next to the folded maximum, the saturation word and the
// end-row blocks. For an odd query that row is the phantom 'N' row's.
func (a *Aligner) ScanPackedRow(q bio.Sequence, prof *bio.PackedProfile, gap int) (best, sat uint64, blocks [bio.PackedLanes8]int, row []uint64) {
	best, sat, blocks, _, _, _ = a.scanPacked(q, prof, gap, nil, pass{})
	return best, sat, blocks, a.row
}

// ScalarRow and FirstCol are the leaf scalar row kernel and the column
// scan its callers run on a row whose maximum they need placed.
var ScalarRow, FirstCol = scalarRow, firstCol
