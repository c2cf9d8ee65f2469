package search

import (
	"fmt"
	"testing"

	"genomedsm/internal/bio"
)

// FuzzPrunedSearchVsFull drives the full pruning pipeline against the
// unpruned scan on fuzzer-chosen databases, queries, scoring schemes
// and K, asserting the bit-exact hit-set contract (same records,
// scores, coordinates and tie-break order) plus the stats invariants:
// every record is accounted for exactly once and cells-saved never
// exceeds the total cell count.
func FuzzPrunedSearchVsFull(f *testing.F) {
	f.Add([]byte("acgtacgtacgtacgtacgt"), []byte("tacgtacgtttacgacgtacgtacgacgt"), uint8(3), uint8(0), uint8(0))
	f.Add([]byte("aaaaaaaaaaaaaaaa"), []byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"), uint8(1), uint8(1), uint8(2))
	f.Add([]byte{}, []byte{0, 1, 2, 3, 4, 5, 6, 7}, uint8(10), uint8(2), uint8(1))
	f.Add([]byte("nnnnnnnnnn"), []byte("acgtnacgtnacgtn"), uint8(2), uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, rawQ, rawDB []byte, kByte, scheme, mode uint8) {
		q := make(bio.Sequence, 0, len(rawQ))
		for _, b := range rawQ {
			q = append(q, "ACGTN"[int(b)%5])
		}
		if len(q) > 96 {
			q = q[:96]
		}
		// Cut the database material into records of fuzzer-shaped
		// lengths; sprinkle in query copies so high scores and floor
		// ties are reachable.
		var db []bio.Record
		pool := make(bio.Sequence, 0, len(rawDB))
		for _, b := range rawDB {
			pool = append(pool, "ACGTN"[int(b)%5])
		}
		if len(pool) > 512 {
			pool = pool[:512]
		}
		for lo, n := 0, 1; lo < len(pool); lo, n = lo+n, (n*7)%23+1 {
			hi := min(lo+n, len(pool))
			db = append(db, bio.Record{ID: fmt.Sprintf("r%d", len(db)), Seq: pool[lo:hi]})
			if len(db)%5 == 2 && len(q) > 0 {
				db = append(db, bio.Record{ID: fmt.Sprintf("copy%d", len(db)), Seq: q})
			}
		}
		scorings := []bio.Scoring{
			bio.DefaultScoring(),
			{Match: 25, Mismatch: -2, Gap: -3},         // saturates int8 fast
			{Match: 7000, Mismatch: -7000, Gap: -9000}, // int16-only, saturates it too
		}
		sc := scorings[int(scheme)%len(scorings)]
		k := int(kByte)%12 + 1
		opt := Options{Scoring: sc, TopK: k}
		switch mode % 3 {
		case 1:
			opt.Router = inter16Router()
		case 2:
			opt.MinScore = sc.Match * 3
		}
		want, err := Run(q, db, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.Prune = true
		got, err := Run(q, db, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Hits) != len(want.Hits) {
			t.Fatalf("pruned %d hits, full %d\npruned: %+v\nfull:   %+v", len(got.Hits), len(want.Hits), got.Hits, want.Hits)
		}
		for i := range want.Hits {
			if got.Hits[i] != want.Hits[i] {
				t.Fatalf("hit %d: pruned %+v, full %+v", i, got.Hits[i], want.Hits[i])
			}
		}
		st := got.Prune
		if st == nil {
			t.Fatal("pruned run returned no stats")
		}
		if n := st.Skipped + st.Abandoned + st.Scanned; n != got.Searched {
			t.Fatalf("stats cover %d of %d records: %+v", n, got.Searched, st)
		}
		if st.CellsSaved < 0 || st.CellsSaved > got.Cells {
			t.Fatalf("cells saved %d outside [0, %d]", st.CellsSaved, got.Cells)
		}
	})
}
