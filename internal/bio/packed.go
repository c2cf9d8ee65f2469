package bio

// This file extends the query-profile idea of profile.go to the
// lane-parallel ("inter-sequence") layout used by the SWAR kernels in
// internal/swar: instead of one int32 substitution score per query
// position, a PackedProfile row holds one uint64 *word* per target
// position, with the scores of several target sequences packed side by
// side — 8 unsigned int8 lanes or 4 unsigned int16 lanes. Scoring many
// database sequences per word is the vectorization style of DSA (Xu et
// al.) and SWAPHI (Liu & Schmidt): all lanes advance through their own
// target in lockstep while the query residue — and therefore the profile
// row — is shared by every lane.
//
// The packed kernels work in unsigned *guard-bit* arithmetic: the top
// bit of every lane is kept free, so clean lane values stay ≤ 127
// (int8) or ≤ 32767 (int16), and the zero clamp of the local recurrence
// is the floor of a clamped subtract. A substitution score is therefore
// split into two non-negative magnitudes per lane:
//
//	plus[c][j]:  Match   where residue c matches target lane l at j, else 0
//	minus[c][j]: |Mismatch| where it does not match, else 0
//
// so that H = clamp(diag − minus) + plus reproduces
// max(0, diag + Substitution(...)) exactly — per lane, exactly one of
// plus/minus is nonzero — as long as no lane exceeds its clean cap
// (PackedCap8 or PackedCap16); a lane that does trips its guard bit and
// is retried wider by internal/swar. Lanes shorter than the padded
// length are padded with an all-mismatch column, which decays their
// scores to zero and can never raise a lane's running maximum.

// Lane geometry of the two packed widths.
const (
	// PackedLanes8 is the number of int8 lanes per uint64 word.
	PackedLanes8 = 8
	// PackedCap8 is the largest score a clean int8 lane can hold: the
	// lane's top bit is a guard bit, and a lane that ever sets it is
	// unreliable and must fall back to a wider kernel.
	PackedCap8 = 127
	// PackedLanes16 is the number of int16 lanes per uint64 word.
	PackedLanes16 = 4
	// PackedCap16 is the guard-bit cap of an int16 lane.
	PackedCap16 = 32767
)

// PackedProfile is the lane-parallel form of Profile: a set of packed
// per-residue rows over a group of up to Lanes() target sequences.
// PlusRow(a)[j] / MinusRow(a)[j] hold, for every lane l, the split
// substitution magnitudes of query residue a against target l's residue
// at position j. Build it once per lane group; it is read-only
// afterwards and safe for concurrent use until a Build method rebuilds
// it in place.
type PackedProfile struct {
	lanes int  // PackedLanes8 or PackedLanes16
	shift uint // bits per lane (8 or 16)
	cap   int  // per-lane saturation cap
	words int  // padded target length (words per row)
	plus  [AlphabetSize][]uint64
	minus [AlphabetSize][]uint64
	// backing holds every row, residue c's plus row then its minus row:
	// minus[c] starts words words after plus[c]. The Build methods reuse
	// it.
	backing []uint64
}

// NewPackedProfile8 builds the 8-lane int8 packed profile of up to 8
// targets under sc. It returns nil when the scoring magnitudes do not
// fit the clean 7-bit lane range or when more than 8 targets are given;
// callers then fall back to a wider layout.
func NewPackedProfile8(targets []Sequence, sc Scoring) *PackedProfile {
	return new(PackedProfile).Build8(targets, sc)
}

// NewPackedProfile16 builds the 4-lane int16 packed profile of up to 4
// targets under sc, for lanes whose scores overflow the int8 cap.
func NewPackedProfile16(targets []Sequence, sc Scoring) *PackedProfile {
	return new(PackedProfile).Build16(targets, sc)
}

// Build8 rebuilds p in place as the profile NewPackedProfile8 builds,
// row for row, reusing p's backing array when it is large enough, and
// returns p — or nil, under exactly the conditions NewPackedProfile8
// returns nil, leaving p to be rebuilt before its next use. p must not
// be in use by anyone else.
func (p *PackedProfile) Build8(targets []Sequence, sc Scoring) *PackedProfile {
	return p.build(targets, sc, PackedLanes8, 8, PackedCap8)
}

// Build16 is Build8 for NewPackedProfile16's profile.
func (p *PackedProfile) Build16(targets []Sequence, sc Scoring) *PackedProfile {
	return p.build(targets, sc, PackedLanes16, 16, PackedCap16)
}

// shape sets p's geometry and points its rows into its backing array,
// grown if it holds fewer than 2·AlphabetSize·words words. The rows keep
// whatever the array held: the builders overwrite every word.
func (p *PackedProfile) shape(lanes int, shift uint, capVal, words int) {
	if cap(p.backing) < 2*AlphabetSize*words {
		p.backing = make([]uint64, 2*AlphabetSize*words)
	}
	p.lanes, p.shift, p.cap, p.words = lanes, shift, capVal, words
	backing := p.backing
	for c := 0; c < AlphabetSize; c++ {
		p.plus[c] = backing[2*c*words : (2*c+1)*words : (2*c+1)*words]
		p.minus[c] = backing[(2*c+1)*words : (2*c+2)*words : (2*c+2)*words]
	}
}

func (p *PackedProfile) build(targets []Sequence, sc Scoring, lanes int, shift uint, capVal int) *PackedProfile {
	if len(targets) > lanes {
		return nil
	}
	match, mismatch := sc.Match, -sc.Mismatch
	if match < 0 || match > capVal || mismatch < 0 || mismatch > capVal {
		return nil
	}
	words := 0
	for _, t := range targets {
		if len(t) > words {
			words = len(t)
		}
	}
	p.shape(lanes, shift, capVal, words)
	mm := uint64(mismatch)
	mv := uint64(match)
	// allMiss is the column of a padded (or mismatching-everywhere) word:
	// |Mismatch| in every lane of the minus row.
	allMiss := uint64(0)
	for l := 0; l < lanes; l++ {
		allMiss |= mm << (uint(l) * shift)
	}
	for c := 0; c < AlphabetSize; c++ {
		for j := 0; j < words; j++ {
			plusW, minusW := uint64(0), allMiss
			if c != codeUnknown {
				for l, t := range targets {
					if j < len(t) && baseCode[t[j]] == uint8(c) {
						off := uint(l) * shift
						plusW |= mv << off
						minusW &^= mm << off
					}
				}
			}
			// The unknown query row (c == 4, i.e. 'N' or invalid bytes)
			// matches nothing — including a target 'N' — so it keeps the
			// all-mismatch column, encoding the Substitution wildcard rule.
			p.plus[c][j] = plusW
			p.minus[c][j] = minusW
		}
	}
	return p
}

// Lanes returns the number of lanes per word (8 for int8, 4 for int16).
func (p *PackedProfile) Lanes() int { return p.lanes }

// Words returns the padded target length: the number of words per row.
func (p *PackedProfile) Words() int { return p.words }

// Cap returns the per-lane clean cap (127 or 32767).
func (p *PackedProfile) Cap() int { return p.cap }

// Shift returns the number of bits per lane (8 or 16).
func (p *PackedProfile) Shift() uint { return p.shift }

// PlusRow returns the packed match-magnitude row for query residue a.
// The slice is shared and must not be modified.
func (p *PackedProfile) PlusRow(a byte) []uint64 { return p.plus[baseCode[a]] }

// MinusRow returns the packed mismatch-magnitude row for query residue a.
func (p *PackedProfile) MinusRow(a byte) []uint64 { return p.minus[baseCode[a]] }

// Lane extracts lane l of a packed word as an int.
func (p *PackedProfile) Lane(word uint64, l int) int {
	mask := uint64(1)<<p.shift - 1
	return int(word >> (uint(l) * p.shift) & mask)
}

// Broadcast replicates the magnitude v (which must fit a lane) into
// every lane of a word — used for the gap-penalty constant.
func (p *PackedProfile) Broadcast(v int) uint64 {
	w := uint64(0)
	for l := 0; l < p.lanes; l++ {
		w |= uint64(v) << (uint(l) * p.shift)
	}
	return w
}
