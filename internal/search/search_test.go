package search

import (
	"fmt"
	"testing"

	"genomedsm/internal/align"
	"genomedsm/internal/bio"
)

// testDB builds a synthetic database: noise records plus mutated copies
// of query fragments, so real hits exist at known indices.
func testDB(t *testing.T, seed int64, q bio.Sequence, noise, homologs int) []bio.Record {
	t.Helper()
	g := bio.NewGenerator(seed)
	var db []bio.Record
	for i := 0; i < noise; i++ {
		db = append(db, bio.Record{ID: fmt.Sprintf("noise%d", i), Seq: g.Random(100 + i*13%400)})
	}
	for i := 0; i < homologs; i++ {
		frag := q[i*7%(len(q)/2) : len(q)/2+i*11%(len(q)/2)]
		db = append(db, bio.Record{ID: fmt.Sprintf("hom%d", i), Seq: g.MutatedCopy(frag, bio.DefaultMutationModel())})
	}
	return db
}

// bruteTopK is the reference: score every record with align.Scan, sort
// by (score desc, index asc), trim to k. The hits are those of a
// NoEndpoints scan, so they carry align.Scan's end cell.
func bruteTopK(t *testing.T, q bio.Sequence, db []bio.Record, sc bio.Scoring, k, minScore int) []Hit {
	t.Helper()
	var hits []Hit
	for i, rec := range db {
		r, err := align.Scan(q, rec.Seq, sc, align.ScanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if r.BestScore > 0 && r.BestScore >= minScore {
			hits = append(hits, Hit{Index: i, ID: rec.ID, Score: r.BestScore, endI: r.BestI, endJ: r.BestJ})
		}
	}
	for i := 1; i < len(hits); i++ {
		for j := i; j > 0; j-- {
			a, b := hits[j-1], hits[j]
			if b.Score > a.Score || (b.Score == a.Score && b.Index < a.Index) {
				hits[j-1], hits[j] = hits[j], hits[j-1]
			}
		}
	}
	if len(hits) > k {
		hits = hits[:k]
	}
	return hits
}

func TestRunMatchesBruteForce(t *testing.T) {
	g := bio.NewGenerator(11)
	q := g.Random(300)
	db := testDB(t, 12, q, 30, 10)
	sc := bio.DefaultScoring()
	want := bruteTopK(t, q, db, sc, 10, 0)
	for _, workers := range []int{1, 3, 8} {
		for _, kern := range kernelAxis {
			opt, lanes := kern.opt, kern.name
			opt.Workers, opt.NoEndpoints = workers, true
			res, err := Run(q, db, opt)
			if err != nil {
				t.Fatalf("workers=%d lanes=%s: %v", workers, lanes, err)
			}
			if res.Searched != len(db) {
				t.Errorf("searched %d, want %d", res.Searched, len(db))
			}
			if len(res.Hits) != len(want) {
				t.Fatalf("workers=%d lanes=%s: %d hits, want %d", workers, lanes, len(res.Hits), len(want))
			}
			for i := range want {
				if res.Hits[i] != want[i] {
					t.Errorf("workers=%d lanes=%s hit %d: %+v, want %+v", workers, lanes, i, res.Hits[i], want[i])
				}
			}
		}
	}
}

func TestRunEndpoints(t *testing.T) {
	g := bio.NewGenerator(21)
	q := g.Random(300)
	db := testDB(t, 22, q, 10, 5)
	sc := bio.DefaultScoring()
	res, err := Run(q, db, Options{TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) == 0 {
		t.Fatal("no hits")
	}
	for _, h := range res.Hits {
		if h.QBegin < 1 || h.QEnd > len(q) || h.QBegin > h.QEnd {
			t.Errorf("%s: query span %d..%d out of range", h.ID, h.QBegin, h.QEnd)
		}
		tgt := db[h.Index].Seq
		if h.TBegin < 1 || h.TEnd > len(tgt) || h.TBegin > h.TEnd {
			t.Errorf("%s: target span %d..%d out of range", h.ID, h.TBegin, h.TEnd)
		}
		// The span must reproduce the reported score exactly.
		sub, err := align.Sim(q.Sub(h.QBegin, h.QEnd), tgt.Sub(h.TBegin, h.TEnd), sc)
		if err != nil {
			t.Fatal(err)
		}
		if sub != h.Score {
			t.Errorf("%s: span rescores %d, want %d", h.ID, sub, h.Score)
		}
	}
}

func TestRunOptions(t *testing.T) {
	g := bio.NewGenerator(31)
	q := g.Random(200)
	db := testDB(t, 32, q, 20, 4)

	res, err := Run(q, db, Options{TopK: 3, NoEndpoints: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 3 {
		t.Errorf("TopK=3 returned %d hits", len(res.Hits))
	}

	// MinScore filters everything below the strongest hit.
	top := res.Hits[0].Score
	res, err = Run(q, db, Options{MinScore: top, NoEndpoints: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range res.Hits {
		if h.Score < top {
			t.Errorf("MinScore leak: %+v", h)
		}
	}

	if _, err := Run(q, db, Options{Lanes: 7}); err == nil {
		t.Error("invalid lane width accepted")
	}
	if _, err := Run(q, db, Options{Scoring: bio.Scoring{Match: -1, Mismatch: 1, Gap: 1}}); err == nil {
		t.Error("invalid scoring accepted")
	}
}

func TestRunEmptyDatabase(t *testing.T) {
	g := bio.NewGenerator(41)
	res, err := Run(g.Random(100), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 0 || res.Searched != 0 || res.Cells != 0 {
		t.Errorf("empty database: %+v", res)
	}
}

// TestRunSaturatingRecords mixes records long and similar enough to
// overflow int8 (and with a crafted scoring, int16) into the database,
// so the per-lane fallback chain runs inside the worker pool.
func TestRunSaturatingRecords(t *testing.T) {
	g := bio.NewGenerator(51)
	q := g.Random(700)
	db := testDB(t, 52, q, 15, 3)
	db = append(db,
		bio.Record{ID: "identity", Seq: q.Clone()}, // score 700 > 255
		bio.Record{ID: "half", Seq: q[:400].Clone()},
	)
	want := bruteTopK(t, q, db, bio.DefaultScoring(), 10, 0)
	res, err := Run(q, db, Options{NoEndpoints: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if res.Hits[i] != want[i] {
			t.Errorf("hit %d: %+v, want %+v", i, res.Hits[i], want[i])
		}
	}
	if res.Hits[0].ID != "identity" || res.Hits[0].Score != 700 {
		t.Errorf("identity record not on top: %+v", res.Hits[0])
	}
}

func TestLaneGroups(t *testing.T) {
	var db []bio.Record
	g := bio.NewGenerator(61)
	for _, n := range []int{5, 900, 17, 900, 33, 1, 0, 250, 250, 249} {
		db = append(db, bio.Record{Seq: g.Random(n)})
	}
	groups := NewDB(db).groups
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(groups))
	}
	seen := map[int]bool{}
	prevMin := 1 << 30
	for _, grp := range groups {
		if len(grp.recs) > bio.PackedLanes8 {
			t.Fatalf("group of %d lanes", len(grp.recs))
		}
		for _, idx := range grp.recs {
			if seen[idx] {
				t.Fatalf("record %d in two groups", idx)
			}
			seen[idx] = true
			n := len(db[idx].Seq)
			if n > prevMin {
				t.Fatalf("record %d (len %d) after shorter records (min %d): not length-sorted", idx, n, prevMin)
			}
			if n < prevMin {
				prevMin = n
			}
		}
	}
	if len(seen) != len(db) {
		t.Fatalf("grouped %d of %d records", len(seen), len(db))
	}
	// Sorted batching packs equal lengths together: the two 900s and the
	// 250/250/249 run must land in the same groups, keeping padding low.
	res, err := Run(g.Random(50), db, Options{NoEndpoints: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.PaddedCells < res.Cells {
		t.Errorf("padded cells %d < true cells %d", res.PaddedCells, res.Cells)
	}
	// With 8 lanes over this length mix the padding overhead stays well
	// under the all-in-one-group worst case (everything padded to 900).
	worst := int64(len(db)) * 900 * 50
	if res.PaddedCells >= worst {
		t.Errorf("padding waste %d not better than unsorted worst case %d", res.PaddedCells, worst)
	}
}

func TestTopKHeap(t *testing.T) {
	h := &topK{k: 3}
	for i, s := range []int{5, 1, 9, 3, 9, 2, 7} {
		h.push(scored{score: s, index: i})
	}
	if len(h.items) != 3 {
		t.Fatalf("heap kept %d items", len(h.items))
	}
	got := map[int]bool{}
	for _, it := range h.items {
		got[it.index] = true
	}
	// Top 3 by (score, lower index): scores 9(idx 2), 9(idx 4), 7(idx 6).
	for _, idx := range []int{2, 4, 6} {
		if !got[idx] {
			t.Errorf("top-3 missing index %d: %+v", idx, h.items)
		}
	}
}
