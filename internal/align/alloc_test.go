package align

import (
	"testing"

	"genomedsm/internal/bio"
)

// The reusable aligner structs (Retriever, AffineAligner) exist to cut
// steady-state allocation: the one-shot package functions allocate the
// full working set per call (sparse rows per active cell, three O(m·n)
// Gotoh layers), while a warm struct should allocate only the returned
// alignment (and, for the affine aligner, the query profile). These
// tests pin that property with
// generous ceilings — a regression back to per-cell or per-row
// allocation blows through them by orders of magnitude.

// allocPair builds a pair with a strong planted alignment so the
// retrieval has real work to do.
func allocPair() (s, t bio.Sequence, sc bio.Scoring) {
	g := bio.NewGenerator(7)
	s = g.Random(400)
	motif := s[120:220]
	t = append(append(append(bio.Sequence(nil), g.Random(60)...), motif...), g.Random(60)...)
	return s, t, bio.DefaultScoring()
}

func TestRetrieverSteadyStateAllocs(t *testing.T) {
	s, tt, sc := allocPair()
	res, err := Scan(s, tt, sc, ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestScore < 10 {
		t.Fatalf("planted pair too weak: best=%d", res.BestScore)
	}
	var rt Retriever
	run := func() {
		al, st, err := rt.ReverseRetrieve(s, tt, sc, res.BestI, res.BestJ, res.BestScore)
		if err != nil {
			t.Fatal(err)
		}
		if al.Score != res.BestScore {
			t.Fatalf("retrieved score %d, want %d", al.Score, res.BestScore)
		}
		// The arena stores arrows only: one byte per useful cell (plus
		// the origin), never the 5 B/cell of a value + arrow arena.
		if n := int64(len(rt.arrows.arrs)); n > st.CellsComputed+1 {
			t.Fatalf("arena holds %d B for %d useful cells", n, st.CellsComputed)
		}
	}
	run() // warm the arenas
	allocs := testing.AllocsPerRun(20, run)
	const ceiling = 32 // result + op appends; was ~14.5k one-shot
	if allocs > ceiling {
		t.Errorf("Retriever.ReverseRetrieve: %.0f allocs/op, ceiling %d", allocs, ceiling)
	}
}

// TestRetrieverBeginAllocs: Begin keeps nothing but the rolling rows and
// the profile, both reused, so a warm call allocates nothing at all.
func TestRetrieverBeginAllocs(t *testing.T) {
	s, tt, sc := allocPair()
	res, err := Scan(s, tt, sc, ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var rt Retriever
	run := func() {
		if _, _, _, ok := rt.Begin(s, tt, sc, res.BestI, res.BestJ, res.BestScore); !ok {
			t.Fatal("Begin found no alignment at the scan's best cell")
		}
	}
	run() // size the rolling rows and the profile
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("Retriever.Begin: %.1f allocs/op, want 0", allocs)
	}
}

func TestAffineAlignerSteadyStateAllocs(t *testing.T) {
	s, tt, _ := allocPair()
	sc := AffineScoring{Match: 1, Mismatch: -3, GapOpen: -5, GapExtend: -2}
	var a AffineAligner
	run := func() {
		al, err := a.BestLocalAffine(s, tt, sc)
		if err != nil {
			t.Fatal(err)
		}
		if al.Score < 10 {
			t.Fatalf("planted pair too weak: score=%d", al.Score)
		}
	}
	run() // warm the layer matrices
	allocs := testing.AllocsPerRun(20, run)
	const ceiling = 32 // profile + result + op appends; layers are reused
	if allocs > ceiling {
		t.Errorf("AffineAligner.BestLocalAffine: %.0f allocs/op, ceiling %d", allocs, ceiling)
	}
}
