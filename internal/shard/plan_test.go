package shard

import (
	"fmt"
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
			// shard can pick the precomputed layout (see subDB).
			sp.runs(func(lo, hi int) {
				if lo%bio.PackedLanes8 != 0 || hi != min(lo+bio.PackedLanes8, tc.n) {
					t.Errorf("n=%d shards=%d: span %d owns [%d,%d), not a lane group", tc.n, tc.shards, i, lo, hi)
				}
			})
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

func TestSubDBLayoutAttach(t *testing.T) {
	db := planDB(t, 17, 44, 300)
	db.EnsureLayout()
	parent := db.Layout()
	// A dealt plan (ending in the partial group at rank 44), and an
	// aligned contiguous one.
	plans := [][]Span{PlanSpans(db, 3), {{Lo: 0, Hi: 16}, {Lo: 16, Hi: 44}}}
	for _, spans := range plans {
		for si, sp := range spans {
			d, _, err := subDB(db, sp)
			if err != nil {
				t.Fatalf("span %v: %v", sp, err)
			}
			lay := d.Layout()
			if lay == nil {
				t.Fatalf("span %d %v: planned span did not attach a layout", si, sp)
			}
			// The attached groups must be exactly what building from
			// the sub-database would produce — that is the
			// bit-exactness claim.
			want := search.BuildLayout(d)
			if lay.Groups() != want.Groups() {
				t.Fatalf("span %v: %d groups, want %d", sp, lay.Groups(), want.Groups())
			}
			var owned []int
			sp.runs(func(lo, hi int) { owned = append(owned, lo/bio.PackedLanes8) })
			for g := 0; g < want.Groups(); g++ {
				gw, ww := lay.GroupWords(g), want.GroupWords(g)
				if len(gw) != len(ww) {
					t.Fatalf("span %v group %d: %d words, want %d", sp, g, len(gw), len(ww))
				}
				for j := range ww {
					if gw[j] != ww[j] {
						t.Fatalf("span %v group %d word %d: %#x want %#x", sp, g, j, gw[j], ww[j])
					}
				}
				// And it must alias the parent's words, not copy them.
				if pw := parent.GroupWords(owned[g]); len(gw) > 0 && &pw[0] != &gw[0] {
					t.Errorf("span %v group %d: layout copied instead of aliasing parent group %d", sp, g, owned[g])
				}
			}
		}
	}
	// A span whose runs are not whole lane groups must skip the attach
	// (lazy rebuild is still exact, just not zero-copy).
	for _, sp := range []Span{{Lo: 4, Hi: 12}, {Lo: 4, Hi: 44, Deal: 2}, {Lo: 0, Hi: 20, Deal: 2}} {
		d, _, err := subDB(db, sp)
		if err != nil {
			t.Fatal(err)
		}
		if d.Layout() != nil {
			t.Errorf("span %v of partial groups attached a layout", sp)
		}
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

// TestSubDBOrderAndMapping: a dealt sub-database holds its span's
// records exactly once across the plan, in ascending global index
// order, and scans them in the span's ranks of the global canonical
// order.
func TestSubDBOrderAndMapping(t *testing.T) {
	db := planDB(t, 13, 40, 300)
	spans := PlanSpans(db, 3)
	order := db.Order()
	seen := make(map[int]bool)
	for _, sp := range spans {
		sub, toGlobal, err := subDB(db, sp)
		if err != nil {
			t.Fatalf("subDB(%v): %v", sp, err)
		}
		if sub.Size() != sp.Len() || len(toGlobal) != sp.Len() {
			t.Fatalf("subDB(%v): %d records, %d mapped", sp, sub.Size(), len(toGlobal))
		}
		for li, gi := range toGlobal {
			if seen[gi] {
				t.Fatalf("record %d appears in two spans", gi)
			}
			seen[gi] = true
			if sub.Records()[li].ID != db.Records()[gi].ID {
				t.Fatalf("span %v local %d maps to %d but IDs differ", sp, li, gi)
			}
			if li > 0 && toGlobal[li-1] >= gi {
				t.Fatalf("span %v: local %d maps to %d after %d", sp, li, gi, toGlobal[li-1])
			}
		}
		var ranks []int
		sp.runs(func(lo, hi int) { ranks = append(ranks, order[lo:hi]...) })
		for j, li := range sub.Order() {
			if toGlobal[li] != ranks[j] {
				t.Fatalf("span %v: local rank %d scans record %d, want %d", sp, j, toGlobal[li], ranks[j])
			}
		}
	}
	if len(seen) != db.Size() {
		t.Fatalf("spans cover %d of %d records", len(seen), db.Size())
	}
}
