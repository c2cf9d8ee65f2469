package align

import (
	"testing"

	"genomedsm/internal/bio"
)

// fuzzSeq maps arbitrary bytes to DNA.
func fuzzSeq(raw []byte, limit int) bio.Sequence {
	if len(raw) > limit {
		raw = raw[:limit]
	}
	s := make(bio.Sequence, len(raw))
	for i, b := range raw {
		s[i] = "ACGT"[int(b)%4]
	}
	return s
}

// FuzzLocalAlignmentConsistency cross-checks the three local-alignment
// implementations (full matrix, linear scan, Section 6 retrieval) on
// arbitrary inputs.
func FuzzLocalAlignmentConsistency(f *testing.F) {
	f.Add([]byte("acgtacgt"), []byte("tgcacgta"))
	f.Add([]byte{}, []byte{1, 2, 3})
	f.Add([]byte("aaaaaaaa"), []byte("aaaa"))
	f.Fuzz(func(t *testing.T, rawS, rawT []byte) {
		s := fuzzSeq(rawS, 96)
		tt := fuzzSeq(rawT, 96)
		r, err := Scan(s, tt, sc, ScanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewSWMatrix(s, tt, sc)
		if err != nil {
			t.Fatal(err)
		}
		_, _, want := m.MaxCell()
		if r.BestScore != want {
			t.Fatalf("scan best %d, matrix best %d", r.BestScore, want)
		}
		if r.BestScore == 0 {
			return
		}
		al, _, err := ReverseRetrieve(s, tt, sc, r.BestI, r.BestJ, r.BestScore)
		if err != nil {
			t.Fatalf("retrieve: %v", err)
		}
		if al.Score < r.BestScore {
			t.Fatalf("retrieved score %d < detected %d", al.Score, r.BestScore)
		}
		if err := al.Validate(s, tt, sc); err != nil {
			t.Fatal(err)
		}
		// Begin coordinates against the dense anchored reference.
		if _, err := checkAgainstAnchoredRef(s, tt, r.BestI, r.BestJ, r.BestScore); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzGlobalConsistency cross-checks Needleman–Wunsch against Hirschberg.
func FuzzGlobalConsistency(f *testing.F) {
	f.Add([]byte("acgt"), []byte("gtac"))
	f.Add([]byte{0}, []byte{})
	f.Fuzz(func(t *testing.T, rawS, rawT []byte) {
		s := fuzzSeq(rawS, 64)
		tt := fuzzSeq(rawT, 64)
		want, err := GlobalScore(s, tt, sc)
		if err != nil {
			t.Fatal(err)
		}
		al, err := GlobalLinear(s, tt, sc)
		if err != nil {
			t.Fatal(err)
		}
		if al.Score != want {
			t.Fatalf("hirschberg %d, nw %d", al.Score, want)
		}
	})
}
