package align

import (
	"testing"
	"testing/quick"

	"genomedsm/internal/bio"
)

// TestPaperSection6Example reproduces the worked example of Section 6:
// running the linear scan over the two given sequences detects an
// alignment of score 6 finishing at positions 14 and 15, and the reverse
// retrieval rebuilds it.
func TestPaperSection6Example(t *testing.T) {
	s := bio.MustSequence("TCTCGACGGATTAGTATATATATA")
	tt := bio.MustSequence("ATATGATCGGAATAGCTCT")
	r, err := Scan(s, tt, sc, ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.BestScore != 6 {
		t.Fatalf("best score = %d, want 6 (paper example)", r.BestScore)
	}
	if r.BestI != 14 || r.BestJ != 15 {
		t.Fatalf("best end = (%d,%d), want (14,15) (paper example)", r.BestI, r.BestJ)
	}
	al, st, err := ReverseRetrieve(s, tt, sc, r.BestI, r.BestJ, r.BestScore)
	if err != nil {
		t.Fatal(err)
	}
	if al.Score != 6 || al.SEnd != 14 || al.TEnd != 15 {
		t.Errorf("retrieved %+v", al)
	}
	if err := al.Validate(s, tt, sc); err != nil {
		t.Error(err)
	}
	if st.CellsComputed >= st.FullCells {
		t.Errorf("pruning saved nothing: %d computed of %d", st.CellsComputed, st.FullCells)
	}
}

// TestObservation61 checks the paper's Observation 6.1 directly: if an
// alignment of score k finishes at (i, j) in (s, t), an alignment of the
// same score starts at (n−i+1, m−j+1) in the reverses — equivalently, the
// alignment mapped by Alignment.Reverse is valid on the reversed
// sequences.
func TestObservation61(t *testing.T) {
	f := func(rawS, rawT []byte) bool {
		s, tt := seqPair(rawS, rawT)
		if s.Len() == 0 || tt.Len() == 0 {
			return true
		}
		al, err := BestLocal(s, tt, sc)
		if err != nil || al.Score == 0 {
			return err == nil
		}
		rev := al.Reverse(s.Len(), tt.Len())
		if rev.Score != al.Score {
			return false
		}
		if rev.SBegin != s.Len()-al.SEnd+1 || rev.TBegin != tt.Len()-al.TEnd+1 {
			return false
		}
		return rev.Validate(s.Reverse(), tt.Reverse(), sc) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBestLocalLinearMatchesFullMatrix(t *testing.T) {
	f := func(rawS, rawT []byte) bool {
		s, tt := seqPair(rawS, rawT)
		full, err := BestLocal(s, tt, sc)
		if err != nil {
			return len(s) == 0 || len(tt) == 0
		}
		if full.Score == 0 {
			return true // nothing to retrieve
		}
		lin, _, err := BestLocalLinear(s, tt, sc)
		if err != nil {
			return false
		}
		return lin.Score == full.Score && lin.Validate(s, tt, sc) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReverseRetrieveOnPlantedMotif(t *testing.T) {
	g := bio.NewGenerator(53)
	motif := g.Random(60)
	s := concat(g.Random(200), motif, g.Random(150))
	tt := concat(g.Random(100), g.MutatedCopy(motif, bio.MutationModel{SubstitutionRate: 0.05}), g.Random(250))
	al, st, err := BestLocalLinear(s, tt, sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := al.Validate(s, tt, sc); err != nil {
		t.Fatal(err)
	}
	if al.Score < 40 {
		t.Errorf("planted motif retrieved with score %d", al.Score)
	}
	// The useful area must be a small fraction of the naive reverse
	// computation: the alignment is ~60 long but ends ~260 deep in s.
	if frac := st.UsefulFraction(); frac > 0.5 {
		t.Errorf("useful fraction %.2f, expected substantial pruning", frac)
	}
}

// TestBeginFloorOnWholeQueryHomolog: a homolog that spans the whole
// query ends its reversed sweep in the last row, where Begin's
// score-to-go floor has risen to k, so Begin computes well under half of
// ReverseRetrieve's Theorem 6.2 area, and still finds its begin cell.
func TestBeginFloorOnWholeQueryHomolog(t *testing.T) {
	g := bio.NewGenerator(61)
	s := g.Random(500)
	tt := concat(g.Random(80), g.MutatedCopy(s, bio.DefaultMutationModel()), g.Random(80))
	r, err := Scan(s, tt, sc, ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	al, full, err := ReverseRetrieve(s, tt, sc, r.BestI, r.BestJ, r.BestScore)
	if err != nil {
		t.Fatal(err)
	}
	var rt Retriever
	sBegin, tBegin, st, ok := rt.Begin(s, tt, sc, r.BestI, r.BestJ, r.BestScore)
	if !ok || sBegin != al.SBegin || tBegin != al.TBegin {
		t.Fatalf("Begin (%d,%d) ok=%v, ReverseRetrieve (%d,%d)", sBegin, tBegin, ok, al.SBegin, al.TBegin)
	}
	if al.SBegin > 10 {
		t.Fatalf("alignment begins at s[%d]: the homolog does not span the query", al.SBegin)
	}
	if 2*st.CellsComputed >= full.CellsComputed {
		t.Errorf("Begin computed %d cells, ReverseRetrieve %d: want under half", st.CellsComputed, full.CellsComputed)
	}
}

func TestReverseRetrieveMinimalLength(t *testing.T) {
	// s contains the motif twice back to back; the alignment of score
	// |motif| ending at the second copy must span only that copy
	// (minimal length), not both.
	motif := bio.MustSequence("ACGGTACGGTTACGAGT") // 17 bases
	s := concat(motif, motif)
	al, _, err := ReverseRetrieve(s, motif, sc, s.Len(), motif.Len(), motif.Len())
	if err != nil {
		t.Fatal(err)
	}
	if al.Length() != motif.Len() {
		t.Errorf("retrieved alignment length %d, want minimal %d", al.Length(), motif.Len())
	}
	if al.SBegin != motif.Len()+1 {
		t.Errorf("alignment begins at s[%d], want %d", al.SBegin, motif.Len()+1)
	}
	if err := al.Validate(s, motif, sc); err != nil {
		t.Error(err)
	}
}

func TestReverseRetrieveErrors(t *testing.T) {
	s := bio.MustSequence("ACGT")
	tt := bio.MustSequence("ACGT")
	if _, _, err := ReverseRetrieve(s, tt, sc, 0, 1, 1); err == nil {
		t.Error("out-of-range endI accepted")
	}
	if _, _, err := ReverseRetrieve(s, tt, sc, 1, 5, 1); err == nil {
		t.Error("out-of-range endJ accepted")
	}
	if _, _, err := ReverseRetrieve(s, tt, sc, 4, 4, 0); err == nil {
		t.Error("non-positive score accepted")
	}
	// Score 10 is impossible for 4-base sequences.
	if _, _, err := ReverseRetrieve(s, tt, sc, 4, 4, 10); err == nil {
		t.Error("impossible target score accepted")
	}
	// Position with no alignment of the requested score.
	if _, _, err := ReverseRetrieve(bio.MustSequence("AAAA"), bio.MustSequence("CCCC"), sc, 4, 4, 3); err == nil {
		t.Error("retrieval at dissimilar position accepted")
	}
	if _, _, err := BestLocalLinear(bio.MustSequence("AAAA"), bio.MustSequence("CCCC"), sc); err == nil {
		t.Error("BestLocalLinear with no positive alignment accepted")
	}
}

func TestRetrieveAll(t *testing.T) {
	g := bio.NewGenerator(59)
	m1, m2 := g.Random(40), g.Random(35)
	s := concat(g.Random(80), m1, g.Random(90), m2, g.Random(60))
	tt := concat(g.Random(50), m2, g.Random(100), m1, g.Random(70))
	r, err := Scan(s, tt, sc, ScanOptions{EndpointMinScore: 25})
	if err != nil {
		t.Fatal(err)
	}
	als, st, err := RetrieveAll(s, tt, sc, r.Endpoints)
	if err != nil {
		t.Fatal(err)
	}
	if len(als) < 2 {
		t.Fatalf("retrieved %d alignments, want >= 2", len(als))
	}
	for i, a := range als {
		if err := a.Validate(s, tt, sc); err != nil {
			t.Errorf("alignment %d: %v", i, err)
		}
		if a.Score < 25 {
			t.Errorf("alignment %d score %d below threshold", i, a.Score)
		}
	}
	if st.CellsComputed == 0 {
		t.Error("stats not accumulated")
	}
}

// TestEq3WorstCaseBound exercises Eq. (3)'s worst-case analysis: even for
// a full-length alignment (n' = n, the worst case for the useful area),
// the pruned computation must stay under ~2/3 of the matrix plus
// lower-order terms — the paper derives that at least 2/3·n'² − n' cells
// are unnecessary, i.e. necessary space ≈ 1/3 before rounding ("roughly
// 30%").
func TestEq3WorstCaseBound(t *testing.T) {
	g := bio.NewGenerator(61)
	s := g.Random(400)
	// t = s makes the whole-diagonal alignment the best one, so n' = n
	// and the useful area is maximal.
	r, err := Scan(s, s, sc, ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := ReverseRetrieve(s, s, sc, r.BestI, r.BestJ, r.BestScore)
	if err != nil {
		t.Fatal(err)
	}
	n := float64(s.Len())
	bound := n*n/3 + 3*n // necessary area per Eq. (3), plus slack for borders
	if float64(st.CellsComputed) > bound {
		t.Errorf("computed %d cells, Eq. (3) bound %.0f", st.CellsComputed, bound)
	}
	if frac := st.UsefulFraction(); frac > 0.36 {
		t.Errorf("worst-case useful fraction %.3f, paper says ~0.30", frac)
	}
}

// TestRetrieverArenaTrim pins the high-water trim: a single giant
// retrieval must not pin its arena for the lifetime of the Retriever.
// After enough small retrievals to roll through a full observation
// window, the arena capacity must drop back near the small workload's
// needs instead of staying at the giant one's.
func TestRetrieverArenaTrim(t *testing.T) {
	g := bio.NewGenerator(77)
	big := g.Random(1500)
	small := g.Random(80)

	var rt Retriever
	retrieve := func(s, tt bio.Sequence) {
		t.Helper()
		r, err := Scan(s, tt, sc, ScanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		al, _, err := rt.ReverseRetrieve(s, tt, sc, r.BestI, r.BestJ, r.BestScore)
		if err != nil {
			t.Fatal(err)
		}
		if al.Score != r.BestScore {
			t.Fatalf("retrieved score %d, want %d", al.Score, r.BestScore)
		}
	}

	// The identity pair maximizes the useful area, so the arena balloons.
	retrieve(big, big)
	bigCap := cap(rt.arrows.arrs)
	if bigCap <= arenaTrimMinCap {
		t.Fatalf("giant retrieval only grew the arena to %d, test needs > %d", bigCap, arenaTrimMinCap)
	}

	// Two full windows of small retrievals: the first window's high-water
	// mark still sees the giant residue, the second one is all-small and
	// must fire the trim.
	for i := 0; i < 2*arenaTrimWindow+1; i++ {
		retrieve(small, small)
	}
	if c := cap(rt.arrows.arrs); c >= bigCap {
		t.Errorf("arena capacity %d never shrank from %d after %d small retrievals",
			c, bigCap, 2*arenaTrimWindow+1)
	}
	if c := cap(rt.arrows.rows); c > 4*small.Len()+arenaTrimMinCap {
		t.Errorf("row arena capacity %d not trimmed for %d-base retrievals", c, small.Len())
	}

	// Trimming must never break correctness: mixed sizes keep retrieving
	// the exact score (checked inside retrieve).
	for i := 0; i < arenaTrimWindow; i++ {
		if i%3 == 0 {
			retrieve(big[:400], big[:400])
		} else {
			retrieve(small, small)
		}
	}
}
