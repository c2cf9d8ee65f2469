package bio

// This file implements the query profile: the precomputed substitution
// rows that let the dynamic-programming inner loops read one int32 per
// cell instead of calling Scoring.Pair (a byte comparison with an 'N'
// branch) per cell. The technique is standard in fast Smith–Waterman
// implementations (Farrar/SWAPHI-style "query profiles"): for each
// residue code x and each query position j, profile[x][j] holds the
// substitution score of x against t[j], built once per comparison in
// O(|Σ|·n) and then shared by every row of the O(m·n) matrix fill.

// AlphabetSize is the number of residue codes a Profile distinguishes:
// A, C, G and T each get their own row; code 4 is the catch-all
// "unknown" row used for 'N' and any byte outside the DNA alphabet.
const AlphabetSize = 5

// codeUnknown is the catch-all residue code ('N' and invalid bytes).
const codeUnknown = 4

// baseCode maps an ASCII byte to its profile row. Only upper-case
// A/C/G/T get dedicated codes, matching the normalized form produced by
// NewSequence.
var baseCode = func() (tab [256]uint8) {
	for i := range tab {
		tab[i] = codeUnknown
	}
	tab['A'], tab['C'], tab['G'], tab['T'] = 0, 1, 2, 3
	return tab
}()

// BaseCode returns the profile row index of base b (A=0, C=1, G=2, T=3,
// everything else — including 'N' — the unknown code 4).
func BaseCode(b byte) uint8 { return baseCode[b] }

// Profile is a query profile against a fixed sequence t: Row(a)[j] is
// the substitution score of residue a against t[j] under the rule of
// Substitution. Build it once per comparison; it is read-only afterwards
// and safe for concurrent use. The zero value is an empty profile that
// Reset can fill.
type Profile struct {
	n       int
	backing []int32
	rows    [AlphabetSize][]int32
}

// NewProfile builds the query profile of t under the linear scheme sc.
func NewProfile(t Sequence, sc Scoring) *Profile {
	return NewSubstProfile(t, sc.Match, sc.Mismatch)
}

// NewSubstProfile builds the query profile of t for an arbitrary
// match/mismatch pair (used by the affine aligner, whose gap model lives
// outside the substitution rule).
func NewSubstProfile(t Sequence, match, mismatch int) *Profile {
	p := new(Profile)
	p.Reset(t, match, mismatch)
	return p
}

// Reset rebuilds p as the profile of t under match/mismatch, reusing
// p's storage when it is large enough — for owners that build one
// profile per comparison and keep nothing of the last (a Retriever, a
// swar.Aligner). Rows handed out before the call are invalid after it.
func (p *Profile) Reset(t Sequence, match, mismatch int) {
	n := len(t)
	if cap(p.backing) < AlphabetSize*n {
		p.backing = make([]int32, AlphabetSize*n)
	}
	p.n = n
	backing := p.backing[:AlphabetSize*n]
	mm := int32(mismatch)
	for i := range backing {
		backing[i] = mm
	}
	for c := 0; c < AlphabetSize; c++ {
		p.rows[c] = backing[c*n : (c+1)*n : (c+1)*n]
	}
	// Only identical known bases score Match; the unknown row (code 4,
	// which includes 'N') stays all-mismatch, and 'N' positions of t are
	// never promoted — the Substitution wildcard rule, encoded once.
	for j := 0; j < n; j++ {
		if c := baseCode[t[j]]; c != codeUnknown {
			p.rows[c][j] = int32(match)
		}
	}
}

// Len returns the profile's query length |t|.
func (p *Profile) Len() int { return p.n }

// Row returns the precomputed substitution row for residue a: a slice of
// length Len() with Row(a)[j] == Substitution(a, t[j], match, mismatch).
// The slice is shared and must not be modified.
func (p *Profile) Row(a byte) []int32 { return p.rows[baseCode[a]] }

// Max32 returns the larger of a and b. The comparison is written so the
// compiler emits a conditional move (no branch) on amd64 and arm64,
// which is what keeps the DP inner loops free of data-dependent
// branches.
func Max32(a, b int32) int32 {
	if b > a {
		a = b
	}
	return a
}

// Min32 returns the smaller of a and b, compiled branch-free like Max32.
func Min32(a, b int32) int32 {
	if b < a {
		a = b
	}
	return a
}

// Clamp0 returns max(v, 0), the zero clamp of the local recurrence,
// compiled branch-free like Max32.
func Clamp0(v int32) int32 {
	if v < 0 {
		v = 0
	}
	return v
}
