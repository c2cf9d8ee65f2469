package swar

import "genomedsm/internal/bio"

// The differential tests live in the external package swar_test (they
// import align, which imports swar); this file hands them the
// unexported pieces of the two-row kernel.

// Max8 and Max16 are the in-kernel maxima.
var Max8, Max16 = max8, max16

// ScanPackedRow is scanPacked without a Bound over the code words of
// targets — int16 lanes when wide — returning the row buffer it left
// behind next to the folded maximum, the saturation word and the end-row
// blocks. For a query of a length not a multiple of eight that row is
// the last phantom 'N' row's.
func (a *Aligner) ScanPackedRow(q bio.Sequence, targets []bio.Sequence, sc bio.Scoring, wide bool) (best, sat uint64, blocks [bio.PackedLanes8]int, row []uint64) {
	w, codes := int8Lanes, bio.InterleaveWords8(nil, targets)
	if wide {
		w, codes = int16Lanes, bio.InterleaveWords16(nil, targets)
	}
	best, sat, blocks, _, _, _ = a.scanPacked(q, codes, w, sc, nil, pass{})
	return best, sat, blocks, a.row
}

// ScalarRow and FirstCol are the leaf scalar row kernel and the column
// scan its callers run on a row whose maximum they need placed.
var ScalarRow, FirstCol = scalarRow, firstCol

// detectedAVX2 is the route the packed passes take on this host.
var detectedAVX2 = hasAVX2

// Routes names the packed-kernel routes this host can take: "avx2" where
// it runs the AVX2 kernels, and "portable", the passes a host without
// AVX2 runs — which no test would reach on an AVX2 host without UseRoute.
func Routes() []string {
	if detectedAVX2 {
		return []string{"avx2", "portable"}
	}
	return []string{"portable"}
}

// UseRoute sends the packed passes down route, one of Routes, until
// the returned func restores this host's own. Tests that call it must
// not run in parallel with other tests of the package.
func UseRoute(route string) (restore func()) {
	hasAVX2 = route == "avx2" && detectedAVX2
	return func() { hasAVX2 = detectedAVX2 }
}
