package shard

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"

	"genomedsm/internal/bio"
	"genomedsm/internal/search"
)

func planDB(t *testing.T, seed int64, n, baseLen int) *search.DB {
	t.Helper()
	g := bio.NewGenerator(seed)
	recs := make([]bio.Record, n)
	for i := range recs {
		rl := baseLen/2 + (i*37)%(baseLen+1)
		recs[i] = bio.Record{ID: fmt.Sprintf("r%d", i), Seq: g.Random(rl)}
	}
	return search.NewDB(recs)
}

func TestPlanSpansPartition(t *testing.T) {
	for _, tc := range []struct{ n, shards int }{
		{64, 1}, {64, 2}, {64, 4}, {64, 7}, {64, 64}, {64, 100},
		{1, 4}, {3, 3}, {0, 2}, {61, 3},
	} {
		db := planDB(t, 7, tc.n, 300)
		spans := PlanSpans(db, tc.shards)
		if len(spans) != tc.shards {
			t.Fatalf("n=%d shards=%d: got %d spans", tc.n, tc.shards, len(spans))
		}
		if err := ValidateSpans(spans, tc.n); err != nil {
			t.Fatalf("n=%d shards=%d: %v", tc.n, tc.shards, err)
		}
		for i, sp := range spans {
			// The frozen benchmark sums order[Lo:Hi] of every span.
			if sp.Lo < 0 || sp.Lo > sp.Hi || sp.Hi > tc.n {
				t.Errorf("n=%d shards=%d: span %d %v leaves [0,%d]", tc.n, tc.shards, i, sp, tc.n)
			}
			// Every owned run is a whole global lane group, so every
			// shard's view reads the precomputed layout.
			owned := 0
			sp.runs(func(lo, hi int) {
				if lo%bio.PackedLanes8 != 0 || hi != min(lo+bio.PackedLanes8, tc.n) {
					t.Errorf("n=%d shards=%d: span %d owns [%d,%d), not a lane group", tc.n, tc.shards, i, lo, hi)
				}
				owned += hi - lo
			})
			v, err := sp.view(db)
			if err != nil {
				t.Fatalf("n=%d shards=%d: span %d %v: %v", tc.n, tc.shards, i, sp, err)
			}
			if v.Size() != owned {
				t.Errorf("n=%d shards=%d: span %d %v: view of %d records, want %d", tc.n, tc.shards, i, sp, v.Size(), owned)
			}
		}
	}
}

// TestPlanSpansDealsGroups pins the scattered mapping itself: lane
// group g is owned by shard g mod N and by no other, so every shard's
// first group is among the first N — the longest records, where the
// homologs that raise the pruning floor sort.
func TestPlanSpansDealsGroups(t *testing.T) {
	for _, tc := range []struct{ n, shards int }{
		{64, 2}, {64, 3}, {61, 4}, {64, 8}, {20, 5}, {100, 1},
	} {
		db := planDB(t, 3, tc.n, 300)
		spans := PlanSpans(db, tc.shards)
		groups := (tc.n + bio.PackedLanes8 - 1) / bio.PackedLanes8
		owners := make([][]int, groups)
		for si, sp := range spans {
			first := -1
			sp.runs(func(lo, hi int) {
				g := lo / bio.PackedLanes8
				owners[g] = append(owners[g], si)
				if first < 0 {
					first = g
				}
			})
			if si < groups && first != si {
				t.Errorf("n=%d shards=%d: shard %d starts at group %d, want %d", tc.n, tc.shards, si, first, si)
			}
			if si >= groups && first >= 0 {
				t.Errorf("n=%d shards=%d: shard %d of %d groups owns group %d", tc.n, tc.shards, si, groups, first)
			}
		}
		for g, o := range owners {
			if len(o) != 1 || o[0] != g%tc.shards {
				t.Errorf("n=%d shards=%d: group %d owned by %v, want [%d]", tc.n, tc.shards, g, o, g%tc.shards)
			}
		}
	}
}

// TestSubDBLayoutAttach: a span's view — the sub-database its shard
// scans — reads the database's layout words for each run that is a
// whole lane group, aliasing them rather than copying, and interleaves
// the record bytes of any other run. After the views are built the test
// overwrites the layout's words in place with those of a database of
// the same lengths whose every base is A: a poly-A query then scores a
// record at its full length exactly when the record's run reads the
// layout.
func TestSubDBLayoutAttach(t *testing.T) {
	db := planDB(t, 17, 44, 300)
	parent := db.EnsureLayout()
	recs, order := db.Records(), db.Order()
	polyA := make([]bio.Record, len(recs))
	for i, r := range recs {
		polyA[i] = bio.Record{ID: r.ID, Seq: bytes.Repeat([]byte{'A'}, len(r.Seq))}
	}
	forged := search.BuildLayout(search.NewDB(polyA))
	if forged.Groups() != parent.Groups() {
		t.Fatalf("forged layout holds %d groups, want %d", forged.Groups(), parent.Groups())
	}
	// A dealt plan (ending in the partial group at rank 44), an aligned
	// contiguous one, and spans whose runs are not all whole groups.
	var spans []Span
	spans = append(spans, PlanSpans(db, 3)...)
	spans = append(spans, Span{Lo: 0, Hi: 16}, Span{Lo: 16, Hi: 44})
	spans = append(spans, Span{Lo: 4, Hi: 12}, Span{Lo: 4, Hi: 44, Deal: 2}, Span{Lo: 0, Hi: 20, Deal: 2})
	views := make([]*search.DB, len(spans))
	for i, sp := range spans {
		v, err := sp.view(db)
		if err != nil {
			t.Fatalf("span %v: %v", sp, err)
		}
		views[i] = v
	}
	for g := 0; g < parent.Groups(); g++ {
		pw, fw := parent.GroupWords(g), forged.GroupWords(g)
		if len(pw) != len(fw) {
			t.Fatalf("group %d: forged layout holds %d words, want %d", g, len(fw), len(pw))
		}
		copy(pw, fw)
	}
	q := bytes.Repeat([]byte{'A'}, 30)
	for i, sp := range spans {
		scores := make(map[int]int)
		// The scores are read as the scan reports them. A floor hint
		// above any score keeps every entry out of the finish pass,
		// whose rescan of the record bytes rejects a forged score.
		bq := search.BatchQuery{
			Seq:       q,
			OnScore:   func(s, idx int) { scores[idx] = s },
			FloorHint: func() int { return len(q) + 1 },
		}
		out, err := search.RunBatch(context.Background(), []search.BatchQuery{bq}, views[i], search.Options{NoEndpoints: true, Workers: 1})
		if err == nil {
			err = out[0].Err
		}
		if err != nil {
			t.Fatalf("span %v: %v", sp, err)
		}
		if len(scores) != views[i].Size() {
			t.Fatalf("span %v: %d records scored, want %d", sp, len(scores), views[i].Size())
		}
		sp.runs(func(lo, hi int) {
			whole := lo%bio.PackedLanes8 == 0 && (hi-lo == bio.PackedLanes8 || hi == len(order))
			for _, idx := range order[lo:hi] {
				s, ok := scores[idx]
				switch {
				case !ok:
					t.Errorf("span %v run [%d,%d): record %d not scored", sp, lo, hi, idx)
				case whole && s != len(q):
					t.Errorf("span %v run [%d,%d): record %d scores %d, not the layout's %d: the view copied the words or skipped them", sp, lo, hi, idx, s, len(q))
				case !whole && s >= len(q):
					t.Errorf("span %v run [%d,%d) of a partial group: record %d scores %d from the layout's words", sp, lo, hi, idx, s)
				}
			}
		})
	}
}

// TestPlanSpansBalance: dealt groups balance cells. Shard i's k-th
// group is never shorter than shard i+1's, so loads fall with the shard
// id and the first and last shard differ by at most group 0's bases;
// and each load stays within the contiguous planner's old tolerance of
// the ideal.
func TestPlanSpansBalance(t *testing.T) {
	db := planDB(t, 11, 256, 500)
	const shards = 4
	spans := PlanSpans(db, shards)
	recs, order := db.Records(), db.Order()
	bases := func(ranks []int) (b int64) {
		for _, idx := range ranks {
			b += int64(len(recs[idx].Seq))
		}
		return b
	}
	var loads []int64
	for _, sp := range spans {
		var l int64
		sp.runs(func(lo, hi int) { l += bases(order[lo:hi]) })
		loads = append(loads, l)
	}
	target := db.TotalBases() / shards
	// Each contiguous cut landed within one max-record-length of the
	// ideal point, then moved at most half a lane group (4 records) to
	// the nearest group boundary: tolerance = (1 + PackedLanes8/2) × max
	// record length (750 here).
	tol := int64(1+bio.PackedLanes8/2) * 750
	for i, l := range loads {
		if diff := l - target; diff > tol || diff < -tol {
			t.Errorf("shard %d carries %d bases, target %d (loads %v)", i, l, target, loads)
		}
		if i > 0 && l > loads[i-1] {
			t.Errorf("shard %d carries %d bases, more than shard %d (loads %v)", i, l, i-1, loads)
		}
	}
	if spread, g0 := loads[0]-loads[shards-1], bases(order[:bio.PackedLanes8]); spread > g0 {
		t.Errorf("loads %v spread %d bases, more than group 0's %d", loads, spread, g0)
	}
}

func TestValidateSpansRejects(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spans []Span
		n     int
	}{
		{"empty plan", nil, 4},
		{"gap", []Span{{Lo: 0, Hi: 2}, {Lo: 3, Hi: 4}}, 4},
		{"overlap", []Span{{Lo: 0, Hi: 3}, {Lo: 2, Hi: 4}}, 4},
		{"inverted", []Span{{Lo: 0, Hi: 2}, {Lo: 2, Hi: 1}}, 4},
		{"short", []Span{{Lo: 0, Hi: 2}}, 4},
		{"long", []Span{{Lo: 0, Hi: 6}}, 4},
		{"negative", []Span{{Lo: -1, Hi: 4}}, 4},
		// Dealt forms over three lane groups.
		{"dealt gap", []Span{{Lo: 0, Hi: 24, Deal: 3}, {Lo: 8, Hi: 24, Deal: 3}}, 24},
		{"dealt overlap", []Span{{Lo: 0, Hi: 24, Deal: 2}, {Lo: 8, Hi: 24, Deal: 1}}, 24},
		{"dealt twice", []Span{{Lo: 0, Hi: 24, Deal: 2}, {Lo: 0, Hi: 24, Deal: 2}, {Lo: 8, Hi: 16}}, 24},
		{"dealt long", []Span{{Lo: 0, Hi: 32, Deal: 2}, {Lo: 8, Hi: 24, Deal: 2}}, 24},
		{"negative deal", []Span{{Lo: 0, Hi: 24, Deal: -2}}, 24},
	} {
		if err := ValidateSpans(tc.spans, tc.n); err == nil {
			t.Errorf("%s: ValidateSpans accepted %v over %d records", tc.name, tc.spans, tc.n)
		}
	}
	// Both forms, and a mix of them, are partitions.
	for _, spans := range [][]Span{
		{{Lo: 0, Hi: 24, Deal: 2}, {Lo: 8, Hi: 24, Deal: 2}},
		{{Lo: 0, Hi: 24, Deal: 2}, {Lo: 8, Hi: 16}},
		{{Lo: 0, Hi: 5}, {Lo: 5, Hi: 24}},
	} {
		if err := ValidateSpans(spans, 24); err != nil {
			t.Errorf("ValidateSpans rejected %v: %v", spans, err)
		}
	}
}

// TestSubDBOrderAndMapping: the views of a dealt plan — the
// sub-databases its shards scan — hold each record of the database
// exactly once across the plan, scan a span's records in the span's
// ranks of the global canonical order, and report every score and hit
// under the database's own record index.
func TestSubDBOrderAndMapping(t *testing.T) {
	db := planDB(t, 13, 40, 300)
	spans := PlanSpans(db, 3)
	recs, order := db.Records(), db.Order()
	q := bio.NewGenerator(14).Random(60)
	seen := make(map[int]bool)
	for _, sp := range spans {
		v, err := sp.view(db)
		if err != nil {
			t.Fatalf("view(%v): %v", sp, err)
		}
		var ranks []int
		sp.runs(func(lo, hi int) { ranks = append(ranks, order[lo:hi]...) })
		if v.Size() != len(ranks) {
			t.Fatalf("span %v: view of %d records, want %d", sp, v.Size(), len(ranks))
		}
		var scanned []int
		bq := search.BatchQuery{Seq: q, OnScore: func(_, idx int) { scanned = append(scanned, idx) }}
		out, err := search.RunBatch(context.Background(), []search.BatchQuery{bq}, v, search.Options{TopK: len(recs), Workers: 1, NoEndpoints: true})
		if err == nil {
			err = out[0].Err
		}
		if err != nil {
			t.Fatalf("span %v: %v", sp, err)
		}
		res := out[0].Result
		if !slices.Equal(scanned, ranks) {
			t.Fatalf("span %v scans records %v, want its ranks' records %v", sp, scanned, ranks)
		}
		if res.Searched != len(ranks) || len(res.Hits) != len(ranks) {
			t.Fatalf("span %v: searched %d, %d hits, want %d", sp, res.Searched, len(res.Hits), len(ranks))
		}
		for _, h := range res.Hits {
			if seen[h.Index] {
				t.Fatalf("record %d appears in two spans", h.Index)
			}
			seen[h.Index] = true
			if !slices.Contains(ranks, h.Index) {
				t.Fatalf("span %v: hit names record %d, which the span does not own", sp, h.Index)
			}
			if h.ID != recs[h.Index].ID {
				t.Fatalf("span %v: hit %q names record %d, whose ID is %q", sp, h.ID, h.Index, recs[h.Index].ID)
			}
		}
	}
	if len(seen) != db.Size() {
		t.Fatalf("spans cover %d of %d records", len(seen), db.Size())
	}
}
