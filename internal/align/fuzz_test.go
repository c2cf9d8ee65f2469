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

// FuzzBeginVsRetrieve pins Begin to ReverseRetrieve on arbitrary pairs,
// five scoring schemes and every endpoint Scan reports — local maxima of
// any score from minScore up, so cells that are not the first to hold
// their score are included and the dense fallback runs. Where
// ReverseRetrieve's sweep reaches the score, Begin must report its begin
// cell, with RetrieveStats no larger than its own (Begin's score-to-go
// floor computes fewer cells by design); where it falls back, Begin must
// report ok=false, and its counters plus the dense pass's must not
// exceed ReverseRetrieve's. The fallback always relocates the end (a dense
// traceback that reached the origin would be an anchored path the sweep
// keeps), which is how the test tells the two apart.
func FuzzBeginVsRetrieve(f *testing.F) {
	f.Add([]byte("acgtacgtaacgt"), []byte("tgcacgtaacgtt"), uint8(0), uint8(1))
	f.Add([]byte("aaaaaaaa"), []byte("aaaa"), uint8(1), uint8(2))
	f.Add([]byte("acacacacacacac"), []byte("cacacaacacac"), uint8(2), uint8(0))
	f.Add([]byte("ggggttttggggttttgggg"), []byte("ggggtttggggtttgggg"), uint8(3), uint8(3))
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3, 3, 3, 0}, []byte{0, 1, 2, 0, 1, 2, 3, 3, 0}, uint8(4), uint8(1))
	schemes := []bio.Scoring{
		sc,
		{Match: 1, Mismatch: -1, Gap: -1},
		{Match: 2, Mismatch: -3, Gap: -5},
		{Match: 5, Mismatch: -4, Gap: -3},
		{Match: 1, Mismatch: -3, Gap: -2},
	}
	var rt Retriever // reused across inputs, as a realign worker does
	f.Fuzz(func(t *testing.T, rawS, rawT []byte, scheme, minScore uint8) {
		s, tt := fuzzSeq(rawS, 128), fuzzSeq(rawT, 128)
		sc := schemes[int(scheme)%len(schemes)]
		r, err := Scan(s, tt, sc, ScanOptions{ForceScalar: true, EndpointMinScore: 1 + int(minScore%8)})
		if err != nil {
			t.Fatal(err)
		}
		for _, ep := range r.Endpoints {
			al, want, err := ReverseRetrieve(s, tt, sc, ep.I, ep.J, ep.Score)
			if err != nil {
				t.Fatalf("retrieve %+v: %v", ep, err)
			}
			fellBack := al.SEnd != ep.I || al.TEnd != ep.J
			sBegin, tBegin, got, ok := rt.Begin(s, tt, sc, ep.I, ep.J, ep.Score)
			if ok == fellBack {
				t.Fatalf("%+v: Begin ok=%v, ReverseRetrieve fell back=%v", ep, ok, fellBack)
			}
			if !ok {
				if _, got, err = reverseRetrieveDense(s, tt, sc, ep.I, ep.J, ep.Score, got); err != nil {
					t.Fatalf("%+v: dense pass: %v", ep, err)
				}
			} else if sBegin != al.SBegin || tBegin != al.TBegin {
				t.Fatalf("%+v: Begin (%d,%d), ReverseRetrieve (%d,%d)", ep, sBegin, tBegin, al.SBegin, al.TBegin)
			}
			if !statsWithin(got, want) {
				t.Fatalf("%+v (ok=%v): Begin stats %+v, above ReverseRetrieve's %+v", ep, ok, got, want)
			}
		}
	})
}

// statsWithin reports whether every counter of got is at most want's.
func statsWithin(got, want RetrieveStats) bool {
	return got.CellsComputed <= want.CellsComputed && got.FullCells <= want.FullCells &&
		got.RowsComputed <= want.RowsComputed
}

// FuzzBeginReachVsAnchored pins Begin, which drops every cell that the
// rows left cannot lift to the target score, to BeginAnchored, the same
// sweep under Theorem 6.2's pruning alone, on five scoring schemes
// (match 1, 2 and 5 among them: the floor steps by match per row) and
// every endpoint Scan reports. When plant is odd the fuzzed s is copied
// whole into t, so the alignments of the best cells start at row 1 of s
// — the last row of the reversed sweep, where the floor reaches k. Both
// must agree on ok and the begin cell, and Begin must compute no more
// cells.
func FuzzBeginReachVsAnchored(f *testing.F) {
	f.Add([]byte("acgtacgtaacgt"), []byte("tgcacgtaacgtt"), uint8(0), uint8(1), uint8(1))
	f.Add([]byte("aaaaaaaa"), []byte("aaaa"), uint8(1), uint8(2), uint8(0))
	f.Add([]byte("acacacacacacac"), []byte("cacacaacacac"), uint8(2), uint8(0), uint8(1))
	f.Add([]byte("ggggttttggggttttgggg"), []byte("ggggtttggggtttgggg"), uint8(3), uint8(3), uint8(1))
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3, 3, 3, 0}, []byte{0, 1, 2, 0, 1, 2, 3, 3, 0}, uint8(4), uint8(1), uint8(1))
	f.Add([]byte("tagcatgcaatgccgatt"), []byte("ccgtagcatgcttgccgattgg"), uint8(2), uint8(4), uint8(0))
	schemes := []bio.Scoring{
		sc,
		{Match: 1, Mismatch: -1, Gap: -1},
		{Match: 2, Mismatch: -3, Gap: -5},
		{Match: 5, Mismatch: -4, Gap: -3},
		{Match: 1, Mismatch: -3, Gap: -2},
	}
	var reach, anchored Retriever
	f.Fuzz(func(t *testing.T, rawS, rawT []byte, scheme, minScore, plant uint8) {
		s, tt := fuzzSeq(rawS, 128), fuzzSeq(rawT, 128)
		if plant%2 == 1 {
			tt = append(append(tt[:len(tt)/2:len(tt)/2], s...), tt[len(tt)/2:]...)
		}
		sc := schemes[int(scheme)%len(schemes)]
		r, err := Scan(s, tt, sc, ScanOptions{ForceScalar: true, EndpointMinScore: 1 + int(minScore%8)})
		if err != nil {
			t.Fatal(err)
		}
		for _, ep := range r.Endpoints {
			sb, tb, got, ok := reach.Begin(s, tt, sc, ep.I, ep.J, ep.Score)
			wsb, wtb, want, wok := anchored.BeginAnchored(s, tt, sc, ep.I, ep.J, ep.Score)
			if ok != wok || sb != wsb || tb != wtb {
				t.Fatalf("%+v: Begin (%d,%d) ok=%v, anchored sweep (%d,%d) ok=%v", ep, sb, tb, ok, wsb, wtb, wok)
			}
			if got.CellsComputed > want.CellsComputed {
				t.Fatalf("%+v: Begin computed %d cells, anchored sweep %d", ep, got.CellsComputed, want.CellsComputed)
			}
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
