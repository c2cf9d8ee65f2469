package swar

import (
	"testing"

	"genomedsm/internal/bio"
)

// This file keeps the packed query profile the kernels read before they
// compared code words in register, and the two-row passes that read it,
// as the oracle of the code-word passes (FuzzRowPairVsPortable,
// TestTwoRowMatchesOneRow): a table of per-residue plus and minus rows
// built from the target bytes, which shares no code with the compare
// that replaced it.

// PackedProfile is the lane-parallel form of bio.Profile: packed
// per-residue rows over a group of up to Lanes() target sequences.
// PlusRow(a)[j] / MinusRow(a)[j] hold, for every lane l, the split
// substitution magnitudes of query residue a against target l's residue
// at position j: Match and 0 where they match, else 0 and |Mismatch|.
type PackedProfile struct {
	w     width // int8Lanes or int16Lanes
	words int   // padded target length (words per row)
	plus  [bio.AlphabetSize][]uint64
	minus [bio.AlphabetSize][]uint64
}

// NewPackedProfile8 builds the 8-lane int8 packed profile of up to 8
// targets under sc. It returns nil when the scoring magnitudes do not
// fit the clean 7-bit lane range or when more than 8 targets are given.
func NewPackedProfile8(targets []bio.Sequence, sc bio.Scoring) *PackedProfile {
	return newPackedProfile(targets, sc, int8Lanes)
}

// NewPackedProfile16 builds the 4-lane int16 packed profile of up to 4
// targets under sc.
func NewPackedProfile16(targets []bio.Sequence, sc bio.Scoring) *PackedProfile {
	return newPackedProfile(targets, sc, int16Lanes)
}

func newPackedProfile(targets []bio.Sequence, sc bio.Scoring, w width) *PackedProfile {
	if len(targets) > w.lanes {
		return nil
	}
	match, mismatch := sc.Match, -sc.Mismatch
	if match < 0 || match > w.cap || mismatch < 0 || mismatch > w.cap {
		return nil
	}
	p := &PackedProfile{w: w}
	for _, t := range targets {
		p.words = max(p.words, len(t))
	}
	mm, mv := uint64(mismatch), uint64(match)
	// allMiss is the column of a padded (or mismatching-everywhere) word:
	// |Mismatch| in every lane of the minus row.
	allMiss := w.broadcast(mismatch)
	for c := 0; c < bio.AlphabetSize; c++ {
		p.plus[c], p.minus[c] = make([]uint64, p.words), make([]uint64, p.words)
		for j := 0; j < p.words; j++ {
			plusW, minusW := uint64(0), allMiss
			if c != bio.PadCode {
				for l, t := range targets {
					if j < len(t) && bio.BaseCode(t[j]) == uint8(c) {
						off := uint(l) * w.shift
						plusW |= mv << off
						minusW &^= mm << off
					}
				}
			}
			// The unknown query row ('N' or invalid bytes) matches nothing
			// — including a target 'N' — so it keeps the all-mismatch
			// column, encoding the Substitution wildcard rule.
			p.plus[c][j], p.minus[c][j] = plusW, minusW
		}
	}
	return p
}

// Lanes returns the number of lanes per word (8 for int8, 4 for int16).
func (p *PackedProfile) Lanes() int { return p.w.lanes }

// Words returns the padded target length: the number of words per row.
func (p *PackedProfile) Words() int { return p.words }

// Cap returns the per-lane clean cap (127 or 32767).
func (p *PackedProfile) Cap() int { return p.w.cap }

// Shift returns the number of bits per lane (8 or 16).
func (p *PackedProfile) Shift() uint { return p.w.shift }

// PlusRow returns the packed match-magnitude row for query residue a.
func (p *PackedProfile) PlusRow(a byte) []uint64 { return p.plus[bio.BaseCode(a)] }

// MinusRow returns the packed mismatch-magnitude row for query residue a.
func (p *PackedProfile) MinusRow(a byte) []uint64 { return p.minus[bio.BaseCode(a)] }

// Lane extracts lane l of a packed word as an int.
func (p *PackedProfile) Lane(word uint64, l int) int { return p.w.lane(word, l) }

// Broadcast replicates the magnitude v into every lane of a word.
func (p *PackedProfile) Broadcast(v int) uint64 { return p.w.broadcast(v) }

// refRowPair8 is the two-row pass over profile words the code-word
// rowPair8Go replaced: the same recurrence, with plusA/minusA scoring row
// i and plusB/minusB row i+1.
func refRowPair8(row, plusA, minusA, plusB, minusB []uint64, gapV, best, sat uint64) (uint64, uint64) {
	n := len(row)
	plusA, minusA = plusA[:n], minusA[:n]
	plusB, minusB = plusB[:n], minusB[:n]
	a1 := max8(plusA[0], SubClamp8(row[0], gapV))
	a2, b := uint64(0), uint64(0)
	best = max8(a1, best)
	sat |= plusA[0]
	for j := 1; j < n; j++ {
		ag := SubClamp8(a1, gapV)
		da := SubClamp8(row[j-1], minusA[j]) + plusA[j]
		db := SubClamp8(a2, minusB[j-1]) + plusB[j-1]
		sat |= da | db
		a := max8(max8(da, SubClamp8(row[j], gapV)), ag)
		b = max8(max8(db, ag), SubClamp8(b, gapV))
		row[j-1] = b
		best = max8(max8(a, b), best)
		a2, a1 = a1, a
	}
	db := SubClamp8(a2, minusB[n-1]) + plusB[n-1]
	sat |= db
	b = max8(max8(db, SubClamp8(a1, gapV)), SubClamp8(b, gapV))
	row[n-1] = b
	return max8(b, best), sat
}

// refRowPair16 is refRowPair8 for 4 uint16 lanes.
func refRowPair16(row, plusA, minusA, plusB, minusB []uint64, gapV, best, sat uint64) (uint64, uint64) {
	n := len(row)
	plusA, minusA = plusA[:n], minusA[:n]
	plusB, minusB = plusB[:n], minusB[:n]
	a1 := max16(plusA[0], SubClamp16(row[0], gapV))
	a2, b := uint64(0), uint64(0)
	best = max16(a1, best)
	sat |= plusA[0]
	for j := 1; j < n; j++ {
		ag := SubClamp16(a1, gapV)
		da := SubClamp16(row[j-1], minusA[j]) + plusA[j]
		db := SubClamp16(a2, minusB[j-1]) + plusB[j-1]
		sat |= da | db
		a := max16(max16(da, SubClamp16(row[j], gapV)), ag)
		b = max16(max16(db, ag), SubClamp16(b, gapV))
		row[j-1] = b
		best = max16(max16(a, b), best)
		a2, a1 = a1, a
	}
	db := SubClamp16(a2, minusB[n-1]) + plusB[n-1]
	sat |= db
	b = max16(max16(db, SubClamp16(a1, gapV)), SubClamp16(b, gapV))
	row[n-1] = b
	return max16(b, best), sat
}

// refRowOct advances row by the eight query rows q scores, four
// profile-word two-row passes at p's width.
func refRowOct(row []uint64, p *PackedProfile, q *[8]byte, gapV, best, sat uint64) (uint64, uint64) {
	pair := refRowPair8
	if p.w == int16Lanes {
		pair = refRowPair16
	}
	for k := 0; k < len(q); k += 2 {
		best, sat = pair(row, p.PlusRow(q[k]), p.MinusRow(q[k]), p.PlusRow(q[k+1]), p.MinusRow(q[k+1]), gapV, best, sat)
	}
	return best, sat
}

// TestPackedProfile checks the oracle's packed rows against the scalar
// substitution semantics lane by lane, and that it and the scans refuse
// the same groups and scorings.
func TestPackedProfile(t *testing.T) {
	sc := bio.DefaultScoring()
	targets := []bio.Sequence{
		bio.MustSequence("ACGTN"),
		bio.MustSequence("AAA"),
		{},
		bio.MustSequence("NNNNNNN"),
	}
	p := NewPackedProfile8(targets, sc)
	if p == nil {
		t.Fatal("profile rejected default scoring")
	}
	if p.Words() != 7 || p.Lanes() != 8 || p.Cap() != bio.PackedCap8 {
		t.Fatalf("geometry: words=%d lanes=%d cap=%d", p.Words(), p.Lanes(), p.Cap())
	}
	for _, a := range []byte{'A', 'C', 'G', 'T', 'N'} {
		plus, minus := p.PlusRow(a), p.MinusRow(a)
		for j := 0; j < p.Words(); j++ {
			for l, tgt := range targets {
				wantPlus, wantMinus := 0, -sc.Mismatch
				if j < len(tgt) && bio.Matches(a, tgt[j]) {
					wantPlus, wantMinus = sc.Match, 0
				}
				if got := p.Lane(plus[j], l); got != wantPlus {
					t.Errorf("plus[%q][%d] lane %d = %d, want %d", a, j, l, got, wantPlus)
				}
				if got := p.Lane(minus[j], l); got != wantMinus {
					t.Errorf("minus[%q][%d] lane %d = %d, want %d", a, j, l, got, wantMinus)
				}
			}
		}
	}
	// The scans refuse exactly where the profile refused: too many
	// targets, or a magnitude past the clean lane range. 200 fits a raw
	// byte but not the 7 bits behind the guard bit.
	var al Aligner
	for _, c := range []struct {
		what    string
		targets []bio.Sequence
		sc      bio.Scoring
		wide    bool
		ok      bool
	}{
		{"9 targets, int8", make([]bio.Sequence, 9), sc, false, false},
		{"5 targets, int16", make([]bio.Sequence, 5), sc, true, false},
		{"match 300, int8", targets, bio.Scoring{Match: 300, Mismatch: -1, Gap: -2}, false, false},
		{"match 200, int8", targets, bio.Scoring{Match: 200, Mismatch: -1, Gap: -2}, false, false},
		{"mismatch -200, int8", targets, bio.Scoring{Match: 1, Mismatch: -200, Gap: -2}, false, false},
		{"match 127, int8", targets, bio.Scoring{Match: 127, Mismatch: -127, Gap: -127}, false, true},
		{"match 300, int16", targets[:3], bio.Scoring{Match: 300, Mismatch: -299, Gap: -600}, true, true},
	} {
		prof, scan := NewPackedProfile8, al.Scan8
		if c.wide {
			prof, scan = NewPackedProfile16, al.Scan16
		}
		if got := prof(c.targets, c.sc) != nil; got != c.ok {
			t.Errorf("%s: profile built %v, want %v", c.what, got, c.ok)
		}
		if _, got := scan(bio.MustSequence("ACGT"), c.targets, c.sc); got != c.ok {
			t.Errorf("%s: scan ok %v, want %v", c.what, got, c.ok)
		}
	}
}
