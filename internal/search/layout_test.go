package search

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"genomedsm/internal/bio"
)

func TestLayoutBuildAndValidate(t *testing.T) {
	g := bio.NewGenerator(7)
	q := g.Random(200)
	db := NewDB(testDB(t, 8, q, 20, 5))
	lay := BuildLayout(db)
	if lay.Groups() != (db.Size()+bio.PackedLanes8-1)/bio.PackedLanes8 {
		t.Fatalf("layout holds %d groups for %d records", lay.Groups(), db.Size())
	}
	if err := lay.Validate(db); err != nil {
		t.Fatalf("fresh layout must validate: %v", err)
	}
	if err := db.SetLayout(lay); err != nil {
		t.Fatalf("SetLayout: %v", err)
	}
	if db.Layout() != lay {
		t.Fatalf("Layout() did not return the attached layout")
	}
	// A single flipped code byte must fail validation — this is the
	// forged-lane-section guarantee the pack loader leans on.
	lay.words[len(lay.words)/2] ^= 0x01
	if err := lay.Validate(db); err == nil {
		t.Fatalf("corrupt layout word must fail Validate")
	}
	lay.words[len(lay.words)/2] ^= 0x01
	if err := lay.Validate(db); err != nil {
		t.Fatalf("restored layout must validate again: %v", err)
	}
}

func TestLayoutViewRejects(t *testing.T) {
	words := make([]uint64, 10)
	cases := []struct {
		name string
		offs []int64
	}{
		{"empty", nil},
		{"nonzero start", []int64{1, 10}},
		{"decreasing", []int64{0, 8, 4, 10}},
		{"short cover", []int64{0, 4}},
		{"over cover", []int64{0, 12}},
	}
	for _, tc := range cases {
		if _, err := NewLayoutView(tc.offs, words); err == nil {
			t.Errorf("%s: view must be rejected", tc.name)
		}
	}
	if _, err := NewLayoutView([]int64{0, 4, 10}, words); err != nil {
		t.Fatalf("well-formed view rejected: %v", err)
	}
}

// TestLayoutSlice: a view of whole lane groups — a contiguous run of
// them, or a dealt one (every other group, the shard layer's scattered
// mapping) — reads each group's words from its database's layout, the
// same words at the same address, and a view of a database without a
// layout reads none. Its runs ascend: a view scans its groups in rank
// order.
func TestLayoutSlice(t *testing.T) {
	g := bio.NewGenerator(9)
	recs := testDB(t, 10, g.Random(150), 25, 0)
	db, bare := NewDB(recs), NewDB(recs)
	lay := db.EnsureLayout()
	if lay.Groups() < 4 {
		t.Fatalf("need at least 4 groups, got %d", lay.Groups())
	}
	for _, pick := range [][]int{{1, 2}, {0, 2}, {1, 3}, {lay.Groups() - 1}} {
		runs := make([][2]int, len(pick))
		for i, pg := range pick {
			runs[i] = [2]int{pg * bio.PackedLanes8, min((pg+1)*bio.PackedLanes8, len(recs))}
		}
		v, err := db.View(runs)
		if err != nil {
			t.Fatalf("pick %v: %v", pick, err)
		}
		bv, err := bare.View(runs)
		if err != nil {
			t.Fatalf("pick %v without a layout: %v", pick, err)
		}
		if len(v.groups) != len(pick) {
			t.Fatalf("pick %v holds %d groups", pick, len(v.groups))
		}
		for gi, pg := range pick {
			want := lay.GroupWords(pg)
			got := v.words(&v.groups[gi])
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("pick %v group %d words differ", pick, gi)
			}
			if len(want) > 0 && &want[0] != &got[0] {
				t.Fatalf("pick %v group %d does not alias the parent words", pick, gi)
			}
			if w := bv.words(&bv.groups[gi]); w != nil {
				t.Fatalf("pick %v group %d reads %d words of no layout", pick, gi, len(w))
			}
		}
	}
	if _, err := db.View([][2]int{{24, 25}, {8, 16}}); err == nil {
		t.Fatalf("a view of groups out of rank order was accepted")
	}
}

// TestViewGroups pins what a view scans, for the shard layer's span
// shapes over 44 records (the last group, ranks [40, 44), is partial):
// each run is one lane group holding the run's ranks, in rank order; a
// run that is a whole group reads the layout's own words for it, and
// any other run none; Size, TotalBases, and a scan's Searched and Cells
// count the runs' records alone.
func TestViewGroups(t *testing.T) {
	g := bio.NewGenerator(17)
	recs := make([]bio.Record, 44)
	for i := range recs {
		recs[i] = bio.Record{ID: fmt.Sprint(i), Seq: g.Random(150 + (i*37)%301)}
	}
	db := NewDB(recs)
	lay := db.EnsureLayout()
	q := g.Random(80)
	for _, tc := range []struct {
		name string
		runs [][2]int
	}{
		{"dealt 0 of 3", [][2]int{{0, 8}, {24, 32}}},
		{"dealt 2 of 3, partial last run", [][2]int{{16, 24}, {40, 44}}},
		{"contiguous aligned", [][2]int{{16, 24}, {24, 32}, {32, 40}, {40, 44}}},
		{"contiguous cut mid-group", [][2]int{{4, 12}, {12, 20}, {20, 21}}},
		{"dealt from an unaligned rank", [][2]int{{4, 12}, {20, 28}, {36, 44}}},
		{"dealt, short run before the end", [][2]int{{0, 8}, {16, 20}}},
		{"empty", nil},
	} {
		v, err := db.View(tc.runs)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(v.groups) != len(tc.runs) {
			t.Fatalf("%s: %d groups for %d runs", tc.name, len(v.groups), len(tc.runs))
		}
		size, bases := 0, int64(0)
		for i, r := range tc.runs {
			grp := &v.groups[i]
			if !slices.Equal(grp.recs, db.order[r[0]:r[1]]) {
				t.Errorf("%s: group %d holds %v, want ranks %v: %v", tc.name, i, grp.recs, r, db.order[r[0]:r[1]])
			}
			words := v.words(grp)
			if whole := r[0]%bio.PackedLanes8 == 0 && (r[1]-r[0] == bio.PackedLanes8 || r[1] == len(recs)); !whole {
				if words != nil {
					t.Errorf("%s: run %v reads layout words", tc.name, r)
				}
			} else if want := lay.GroupWords(r[0] / bio.PackedLanes8); len(words) == 0 || &words[0] != &want[0] || len(words) != len(want) {
				t.Errorf("%s: run %v does not read its layout group's words", tc.name, r)
			}
			size += r[1] - r[0]
			for _, idx := range grp.recs {
				bases += int64(len(recs[idx].Seq))
			}
		}
		if v.Size() != size || v.TotalBases() != bases {
			t.Errorf("%s: Size %d TotalBases %d, want %d %d", tc.name, v.Size(), v.TotalBases(), size, bases)
		}
		res, err := RunCtx(context.Background(), q, v, Options{NoEndpoints: true, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.Searched != size || res.Cells != int64(len(q))*bases {
			t.Errorf("%s: Searched %d Cells %d, want %d %d", tc.name, res.Searched, res.Cells, size, int64(len(q))*bases)
		}
	}
	for _, runs := range [][][2]int{
		{{0, 9}}, {{3, 3}}, {{8, 16}, {4, 8}}, {{0, 8}, {7, 12}}, {{40, 45}}, {{-1, 4}},
	} {
		if _, err := db.View(runs); err == nil {
			t.Errorf("View(%v) accepted", runs)
		}
	}
}

// TestSearchWithLayoutDifferential is the exactness pin of the layout
// fast path: every mode — plain, pruned, dispatched, solo and batch —
// returns bit-identical hits whether the DB carries a precomputed
// layout or not.
func TestSearchWithLayoutDifferential(t *testing.T) {
	g := bio.NewGenerator(21)
	q1 := g.Random(250)
	q2 := g.Random(120)
	recs := testDB(t, 22, q1, 40, 8)
	plain := NewDB(recs)
	withLay := NewDB(recs)
	withLay.EnsureLayout()
	if withLay.Layout() == nil {
		t.Fatal("EnsureLayout did not attach a layout")
	}

	opts := []Options{
		{Dispatch: "fixed", NoEndpoints: true},
		{Dispatch: "fixed", Workers: 3},
		{Dispatch: "fixed", Prune: true, TopK: 5},
		{Dispatch: "fixed", Prune: true, TopK: 3},
		{Dispatch: "auto", NoEndpoints: true},
		{Dispatch: "auto", Prune: true, TopK: 7},
		{Router: inter16Router(), NoEndpoints: true},
		{Lanes: 1, NoEndpoints: true},
	}
	queries := []BatchQuery{{Seq: q1}, {Seq: q2}, {Seq: q1[:50]}}
	ctx := context.Background()
	for oi, opt := range opts {
		t.Run(fmt.Sprintf("opt%d", oi), func(t *testing.T) {
			want, err := RunBatch(ctx, queries, plain, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunBatch(ctx, queries, withLay, opt)
			if err != nil {
				t.Fatal(err)
			}
			for qi := range want {
				if want[qi].Err != nil || got[qi].Err != nil {
					t.Fatalf("query %d: unexpected error %v / %v", qi, want[qi].Err, got[qi].Err)
				}
				if !reflect.DeepEqual(want[qi].Result.Hits, got[qi].Result.Hits) {
					t.Errorf("query %d: hits differ with layout attached\nwant %+v\ngot  %+v",
						qi, want[qi].Result.Hits, got[qi].Result.Hits)
				}
				if want[qi].Result.PaddedCells != got[qi].Result.PaddedCells && !opt.Prune {
					// Routing is a fixed rule, so without pruning the
					// padded-cell accounting is scheduling-independent and
					// must agree.
					t.Errorf("query %d: padded cells %d vs %d",
						qi, want[qi].Result.PaddedCells, got[qi].Result.PaddedCells)
				}
			}
		})
	}
}

// TestGroupProfInt16Memo: a work item's int16 subgroup words are
// memoised under its records, not its lane positions. Two calls whose
// kept sets put different records in the same lanes get each its own
// records' words; a call holding the same records in other lanes gets
// the first one's; and reset forgets them all: the next work item's
// records 0 and 2 — of another database — get their own words.
func TestGroupProfInt16Memo(t *testing.T) {
	g := bio.NewGenerator(17)
	var recs []bio.Record
	for i := 0; i < 8; i++ {
		recs = append(recs, bio.Record{ID: fmt.Sprint(i), Seq: g.Random(40 + 7*i)})
	}
	db := NewDB(recs)
	group := []int{0, 1, 2, 3, 4, 5, 6, 7}
	gp := &groupProf{}
	gp.reset(db, group)
	call := func(kept ...int) {
		var seqs []bio.Sequence
		for _, idx := range kept {
			seqs = append(seqs, db.recs[idx].Seq)
		}
		gp.use(kept, seqs)
	}
	seqsOf := func(idx ...int) []bio.Sequence {
		var out []bio.Sequence
		for _, i := range idx {
			out = append(out, db.recs[i].Seq)
		}
		return out
	}
	call(0, 1, 2, 3, 4, 5, 6, 7)
	a := gp.Int16(0b101) // records 0 and 2
	if !slices.Equal(a, bio.InterleaveWords16(nil, seqsOf(0, 2))) {
		t.Fatal("records 0, 2: provided words differ from a fresh interleave")
	}
	call(1, 3, 5, 7)
	b := gp.Int16(0b101) // lanes 0 and 2 now hold records 1 and 5
	if &b[0] == &a[0] || !slices.Equal(b, bio.InterleaveWords16(nil, seqsOf(1, 5))) {
		t.Fatal("records 1, 5: got the words of the records once in the same lanes")
	}
	call(0, 2, 6)
	if c := gp.Int16(0b011); &c[0] != &a[0] {
		t.Error("records 0, 2 in lanes 0, 1: their words were built again")
	}
	if !slices.Equal(gp.Int8(), bio.InterleaveWords8(nil, seqsOf(0, 2, 6))) {
		t.Error("compacted call: int8 words differ from a fresh interleave of its lanes")
	}
	other := make([]bio.Record, len(recs))
	for i := range other {
		other[i] = bio.Record{ID: fmt.Sprint(i), Seq: g.Random(40 + 7*i)}
	}
	db = NewDB(other)
	gp.reset(db, group)
	call(0, 1, 2, 3, 4, 5, 6, 7)
	if !slices.Equal(gp.Int16(0b101), bio.InterleaveWords16(nil, seqsOf(0, 2))) {
		t.Error("reset kept the previous work item's words")
	}
}

// TestGroupProfReusesBuffers pins that a scan worker's code-word holder
// refills its buffers in place: once a first work item has grown them,
// later items — the full group's words from the layout, a compacted
// call's words and two int16 subgroups — run without allocating, and the
// full group's words are the layout's own, never a copy.
func TestGroupProfReusesBuffers(t *testing.T) {
	g := bio.NewGenerator(23)
	var recs []bio.Record
	for i := 0; i < 16; i++ {
		recs = append(recs, bio.Record{ID: fmt.Sprint(i), Seq: g.Random(30 + 5*i)})
	}
	db := NewDB(recs)
	db.EnsureLayout()
	groups := db.groups
	seqs := make([][]bio.Sequence, len(groups))
	for gi, group := range groups {
		for _, idx := range group.recs {
			seqs[gi] = append(seqs[gi], db.recs[idx].Seq)
		}
	}
	gp := &groupProf{}
	item := func(gi int) {
		gp.reset(db, groups[gi].recs)
		gp.words = db.words(&groups[gi])
		gp.use(groups[gi].recs, seqs[gi])
		if w := gp.Int8(); &w[0] != &gp.words[0] {
			t.Fatal("the full group's int8 words are not the layout's")
		}
		if len(gp.Int16(0x0F)) == 0 || len(gp.Int16(0xF0)) == 0 {
			t.Fatal("no int16 words")
		}
		gp.use(groups[gi].recs[:5], seqs[gi][:5])
		if len(gp.Int8()) == 0 {
			t.Fatal("no compacted words")
		}
	}
	for gi := range groups {
		item(gi) // the first pass grows the buffers to the widest group
	}
	if n := testing.AllocsPerRun(20, func() {
		for gi := range groups {
			item(gi)
		}
	}); n != 0 {
		t.Errorf("work items after the first allocated %v times", n)
	}
}

// TestLayoutMiscountedGroupRefused pins the refusal of code words that do
// not cover their group: a layout whose group 1 is cut one word short —
// its last word is the next group's first, as in a corrupt view — passes
// the structural checks, and the scan must refuse those words, never
// score with them, and return the hits of the DB without a layout.
func TestLayoutMiscountedGroupRefused(t *testing.T) {
	g := bio.NewGenerator(31)
	q := g.Random(200)
	recs := testDB(t, 24, q, 30, 6)
	plain := NewDB(recs)
	lay := BuildLayout(plain)
	if lay.Groups() < 3 {
		t.Fatalf("need at least 3 groups, got %d", lay.Groups())
	}
	offs := slices.Clone(lay.offs)
	offs[2]--
	view, err := NewLayoutView(offs, lay.words)
	if err != nil {
		t.Fatal(err)
	}
	bad := NewDB(recs)
	if err := bad.SetLayout(view); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, opt := range []Options{{Dispatch: "auto"}, {Dispatch: "auto", Prune: true, TopK: 4}} {
		want, err := RunBatch(ctx, []BatchQuery{{Seq: q}}, plain, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunBatch(ctx, []BatchQuery{{Seq: q}}, bad, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want[0].Result.Hits, got[0].Result.Hits) {
			t.Fatalf("%+v: hits differ with a miscounted group\nwant %+v\ngot  %+v", opt, want[0].Result.Hits, got[0].Result.Hits)
		}
	}
}
