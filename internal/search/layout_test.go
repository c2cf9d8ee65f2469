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

func TestLayoutSlice(t *testing.T) {
	g := bio.NewGenerator(9)
	db := NewDB(testDB(t, 10, g.Random(150), 25, 0))
	lay := BuildLayout(db)
	if lay.Groups() < 4 {
		t.Fatalf("need at least 4 groups, got %d", lay.Groups())
	}
	// A contiguous run of groups and a dealt one (every other group,
	// the shard layer's scattered mapping) both alias the parent.
	for _, pick := range [][]int{{1, 2}, {0, 2}, {3, 1}} {
		sub := lay.Pick(pick)
		if sub.Groups() != len(pick) {
			t.Fatalf("pick %v holds %d groups", pick, sub.Groups())
		}
		for gi, pg := range pick {
			want := lay.GroupWords(pg)
			got := sub.GroupWords(gi)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("pick %v group %d words differ", pick, gi)
			}
			if len(want) > 0 && &want[0] != &got[0] {
				t.Fatalf("pick %v group %d does not alias the parent words", pick, gi)
			}
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
	groups := db.groups()
	seqs := make([][]bio.Sequence, len(groups))
	for gi, group := range groups {
		for _, idx := range group {
			seqs[gi] = append(seqs[gi], db.recs[idx].Seq)
		}
	}
	gp := &groupProf{}
	item := func(gi int) {
		gp.reset(db, groups[gi])
		gp.words = db.layout.GroupWords(gi)
		gp.use(groups[gi], seqs[gi])
		if w := gp.Int8(); &w[0] != &gp.words[0] {
			t.Fatal("the full group's int8 words are not the layout's")
		}
		if len(gp.Int16(0x0F)) == 0 || len(gp.Int16(0xF0)) == 0 {
			t.Fatal("no int16 words")
		}
		gp.use(groups[gi][:5], seqs[gi][:5])
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
	offs := append(slices.Clone(lay.lo), lay.hi[len(lay.hi)-1])
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
