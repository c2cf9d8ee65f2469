package search

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"genomedsm/internal/align"
	"genomedsm/internal/bio"
	"genomedsm/internal/dispatch"
	"genomedsm/internal/swar"
)

// The located re-alignment suite: the scan hands every hit its end cell
// — replayed from the border row a packed rung saved, or straight from
// a pairwise rung — and RealignBatch only walks back from it. Everything
// below pins that cell, and the coordinates, to those of the whole
// matrix.

// locateScorings covers the rungs a hit's end cell can come from: the
// int8 lanes, the int16 retry of saturated lanes, and the scalar rung
// of lanes that overflow int16 too.
var locateScorings = []bio.Scoring{
	{Match: 1, Mismatch: -1, Gap: -2},
	{Match: 2, Mismatch: -1, Gap: -1},
	{Match: 1, Mismatch: -3, Gap: -4},
	{Match: 25, Mismatch: -2, Gap: -3},         // saturates int8
	{Match: 7000, Mismatch: -7000, Gap: -9000}, // int16-only
}

// locateCase builds a query much longer than its 40–600 bp targets —
// end blocks far from the first — with everything that could move an end
// cell: one motif repeated every 700–1000 query rows, so the maximum
// against its target ties across blocks and only the first occurrence
// may win; motifs ending exactly on rows swar.BlockRows,
// swar.BlockRows+1 and 2·swar.BlockRows, the edges of the first blocks,
// and on rows 64, 65 and 128; N runs in the query and in a target; a
// mutated homolog; and plain noise.
func locateCase(seed int64, qLen int) (bio.Sequence, []bio.Record) {
	g := bio.NewGenerator(seed)
	q := g.Random(qLen)
	var recs []bio.Record
	add := func(name string, parts ...bio.Sequence) {
		var seq bio.Sequence
		for _, p := range parts {
			seq = append(seq, p...)
		}
		recs = append(recs, bio.Record{ID: fmt.Sprintf("%s.%d", name, len(recs)), Seq: seq})
	}
	for i, n := range []int{40, 117, 333, 600} {
		add(fmt.Sprintf("noise%d", i), g.Random(n))
	}
	// The edge motifs first, the repeated one over them where they collide.
	ends := []int{64, 65, 128}
	for _, e := range []int{swar.BlockRows, swar.BlockRows + 1, 2 * swar.BlockRows} {
		if !slices.Contains(ends, e) {
			ends = append(ends, e)
		}
	}
	for _, end := range ends {
		if end <= qLen {
			m := g.Random(min(22, end))
			copy(q[end-len(m):end], m)
			add(fmt.Sprintf("edge%d", end), g.Random(30), m, g.Random(48))
		}
	}
	motif := g.Random(28)
	for p, k := 300, 0; p+len(motif) <= qLen; p, k = p+700+(k*97)%301, k+1 {
		copy(q[p:], motif)
	}
	add("motif", g.Random(50), motif, g.Random(80))
	add("motif2", g.Random(10), motif[:20], g.Random(200), motif[8:], g.Random(10))
	if qLen >= 400 {
		mid := qLen / 2
		copy(q[mid+40:], "NNNNN")
		add("hom", g.Random(60), g.MutatedCopy(q[mid-150:mid+150], bio.DefaultMutationModel()), g.Random(40))
	}
	withN := g.Random(180)
	copy(withN[60:], "NNNN")
	copy(withN[90:], q[qLen/3:min(qLen/3+40, qLen)])
	add("withN", withN)
	return q, recs
}

// requireFullMatrixCoords checks every hit against the oracle the
// located re-alignment must reproduce: the scalar align.Scan of the
// whole matrix for the end cell, ReverseRetrieve from it for the start.
func requireFullMatrixCoords(t *testing.T, label string, q bio.Sequence, recs []bio.Record, sc bio.Scoring, hits []Hit) {
	t.Helper()
	for _, h := range hits {
		tgt := recs[h.Index].Seq
		r, err := align.Scan(q, tgt, sc, align.ScanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		al, _, err := align.ReverseRetrieve(q, tgt, sc, r.BestI, r.BestJ, r.BestScore)
		if err != nil {
			t.Fatalf("%s: %s: %v", label, h.ID, err)
		}
		want := Hit{Index: h.Index, ID: h.ID, Score: r.BestScore,
			QBegin: al.SBegin, QEnd: al.SEnd, TBegin: al.TBegin, TEnd: al.TEnd}
		if h != want {
			t.Errorf("%s: hit %+v, full matrix %+v", label, h, want)
		}
	}
}

// realignCells is what Result.RealignCells must read once the spans of
// hits — realigned, so QEnd is the end row — are filled: located, the
// rows of each end block down to the end row × |t|; unlocated, the whole
// matrices Σ |q|·|t|.
func realignCells(qLen int, recs []bio.Record, hits []Hit) (located, whole int64) {
	for _, h := range hits {
		n := int64(len(recs[h.Index].Seq))
		located += int64((h.QEnd-1)%swar.BlockRows+1) * n
		whole += int64(qLen) * n
	}
	return located, whole
}

// TestLocatedRealignMatchesFullMatrix is the differential: over query
// lengths on both sides of a block edge and far past any target, every
// scoring of locateScorings, one worker and several, pruned and not, the
// routed scan's coordinates are the whole matrix's, the reference scan
// agrees from the end cells its scalar scan found (one block per hit,
// as the routed scan replays), and hand-built hits — the routed hits
// with their spans cleared — realign to the same coordinates over the
// whole matrices, on ScanPair.
func TestLocatedRealignMatchesFullMatrix(t *testing.T) {
	for _, qLen := range []int{64, 65, 4000, 20000} {
		q, recs := locateCase(int64(qLen), qLen)
		db := NewDB(recs)
		for si, sc := range locateScorings {
			if qLen == 20000 && testing.Short() && si > 0 {
				continue
			}
			ref, err := RunCtx(context.Background(), q, db, Options{Scoring: sc, TopK: len(recs), Lanes: 1})
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("|q|=%d scoring %+v", qLen, sc)
			requireFullMatrixCoords(t, label+" reference", q, recs, sc, ref.Hits)
			located, whole := realignCells(qLen, recs, ref.Hits)
			if ref.RealignCells != located {
				t.Errorf("%s: the reference realigned %d cells, the end blocks hold %d", label, ref.RealignCells, located)
			}
			for _, opt := range []Options{{Workers: 1}, {Workers: 4, Prune: true}} {
				opt.Scoring, opt.TopK = sc, len(recs)
				got, err := RunCtx(context.Background(), q, db, opt)
				if err != nil {
					t.Fatalf("%s %+v: %v", label, opt, err)
				}
				name := fmt.Sprintf("%s workers %d prune %v", label, opt.Workers, opt.Prune)
				requireSameHits(t, name, got.Hits, ref.Hits)
				if got.RealignCells != located {
					t.Errorf("%s: realigned %d cells, the end blocks hold %d", name, got.RealignCells, located)
				}
				built := make([]Hit, len(got.Hits))
				for i, h := range got.Hits {
					built[i] = Hit{Index: h.Index, ID: h.ID, Score: h.Score}
				}
				out := []BatchResult{{Result: &Result{Hits: built}}}
				if err := RealignBatch(context.Background(), []BatchQuery{{Seq: q}}, out, recs, sc, opt.Workers); err != nil {
					t.Fatalf("%s hand-built: %v", name, err)
				}
				requireSameHits(t, name+" hand-built", built, ref.Hits)
				if out[0].Result.RealignCells != whole {
					t.Errorf("%s: hand-built hits realigned %d cells, want the whole matrices' %d", name, out[0].Result.RealignCells, whole)
				}
			}
			// The same hits whichever rung every group is forced down: the
			// packed ones leave a border row to replay, the pairwise ones the
			// end cell itself (4 000 rows already put end blocks far below
			// the first; the longest query adds nothing).
			for _, gr := range allGroupRoutes {
				if qLen == 20000 {
					break
				}
				got, err := runForced(q, recs, Options{Scoring: sc, TopK: len(recs)}, forceRouter(gr))
				if err != nil {
					t.Fatalf("%s %v: %v", label, gr, err)
				}
				requireSameHits(t, fmt.Sprintf("%s groups on %v", label, gr), got.Hits, ref.Hits)
				if got.RealignCells != located {
					t.Errorf("%s groups on %v: realigned %d cells, the end blocks hold %d", label, gr, got.RealignCells, located)
				}
			}
			if qLen == 20000 && located*4 > whole {
				t.Errorf("%s: end blocks of %d cells against matrices of %d: the shape no longer exercises the locate step", label, located, whole)
			}
		}
	}
}

// TestEndCellCanonical: the end cell a NoEndpoints scan leaves on a hit
// is (BestI, BestJ) of the scalar whole-matrix scan, whichever
// rung scored the record — every forced lane-group route, on the inputs
// and scorings of TestDispatchForcedRoutesBitExact and on a longer
// query whose maxima tie across blocks — on 1 and 4 workers, pruned or
// not, with or without the lane layout. No hit comes back unlocated, so
// only hand-built hits ever reach RealignBatch's whole-matrix scan.
func TestEndCellCanonical(t *testing.T) {
	g := bio.NewGenerator(71)
	q240 := g.Random(240)
	long, longRecs := locateCase(5, 2500)
	for _, in := range []struct {
		q    bio.Sequence
		recs []bio.Record
	}{{q240, testDB(t, 72, q240, 24, 8)}, {long, longRecs}} {
		plain, withLay := NewDB(in.recs), NewDB(in.recs)
		withLay.EnsureLayout()
		for si, sc := range []bio.Scoring{
			bio.DefaultScoring(),
			{Match: 25, Mismatch: -2, Gap: -3},
			{Match: 7000, Mismatch: -7000, Gap: -9000},
		} {
			want := make(map[int][2]int)
			for _, gr := range allGroupRoutes {
				for _, variant := range []struct {
					db  *DB
					opt Options
				}{
					{plain, Options{Workers: 1}},
					{plain, Options{Workers: 4, Prune: true}},
					{withLay, Options{Workers: 4}},
					{withLay, Options{Workers: 1, Prune: true}},
				} {
					opt := variant.opt
					opt.Scoring, opt.TopK, opt.NoEndpoints, opt.Router = sc, 8, true, forceRouter(gr)
					got, err := RunCtx(context.Background(), in.q, variant.db, opt)
					if err != nil {
						t.Fatal(err)
					}
					if len(got.Hits) == 0 {
						t.Fatalf("|q|=%d scoring%d: no hits", len(in.q), si)
					}
					for _, h := range got.Hits {
						if _, ok := want[h.Index]; !ok {
							sr, err := align.Scan(in.q, in.recs[h.Index].Seq, sc, align.ScanOptions{})
							if err != nil {
								t.Fatal(err)
							}
							want[h.Index] = [2]int{sr.BestI, sr.BestJ}
						}
						if got := [2]int{h.endI, h.endJ}; got != want[h.Index] {
							t.Errorf("|q|=%d scoring%d %v workers %d prune %v layout %v: %s carries end cell %v, scalar oracle %v",
								len(in.q), si, gr, opt.Workers, opt.Prune, variant.db == withLay, h.ID, got, want[h.Index])
						}
					}
				}
			}
		}
	}
}

// TestRealignHandBuiltHits: a Hit that never saw a scan carries no end
// cell and still realigns, over the whole matrix on ScanPair, to the
// coordinates of the scanned one.
func TestRealignHandBuiltHits(t *testing.T) {
	q, recs := locateCase(11, 6000)
	sc := bio.DefaultScoring()
	scanned, err := Run(q, recs, Options{TopK: len(recs)})
	if err != nil {
		t.Fatal(err)
	}
	located, whole := realignCells(len(q), recs, scanned.Hits)
	if scanned.RealignCells != located || located >= whole {
		t.Errorf("scanned hits realigned %d cells: their end blocks hold %d, whole matrices are %d", scanned.RealignCells, located, whole)
	}
	built := make([]Hit, len(scanned.Hits))
	for i, h := range scanned.Hits {
		built[i] = Hit{Index: h.Index, ID: h.ID, Score: h.Score}
	}
	out := []BatchResult{{Result: &Result{Hits: built}}}
	if err := RealignBatch(context.Background(), []BatchQuery{{Seq: q}}, out, recs, sc, 2); err != nil {
		t.Fatal(err)
	}
	requireSameHits(t, "hand-built", built, scanned.Hits)
	if out[0].Result.RealignCells != whole {
		t.Errorf("hand-built hits realigned %d cells, want the whole matrices' %d", out[0].Result.RealignCells, whole)
	}
}

// scannedPair scans q and q[1000:] without endpoints: two queries' worth
// of located hits for the corruption tests.
func scannedPair(t *testing.T, q bio.Sequence, recs []bio.Record, sc bio.Scoring) ([]BatchQuery, []BatchResult) {
	t.Helper()
	queries := []BatchQuery{{Seq: q}, {Seq: q[1000:]}}
	brs, err := RunBatch(context.Background(), queries, NewDB(recs), Options{Scoring: sc, TopK: len(recs), NoEndpoints: true})
	if err != nil {
		t.Fatal(err)
	}
	return queries, brs
}

// TestRealignWrongBlockIsAnError: a located hit is not rescanned, so
// what stands between a wrong end cell and wrong coordinates is
// the reverse sweep's own proof. Every cell before a hit's end cell,
// row-major, holds less than its score, so no alignment of that score
// ends a row higher or a block higher, and one that ends a column
// further is not the one the cell promises: each corruption fails the
// batch — naming the first corrupted hit in (query, hit) order on any
// worker count — instead of quietly realigning something else.
func TestRealignWrongBlockIsAnError(t *testing.T) {
	q, recs := locateCase(13, 5000)
	for name, corrupt := range map[string]func(h *Hit){
		"row -1":         func(h *Hit) { h.endI-- },
		"column +1":      func(h *Hit) { h.endJ++ },
		"previous block": func(h *Hit) { h.endI -= swar.BlockRows },
	} {
		var msgs []string
		for _, workers := range []int{1, 2, 4} {
			queries, brs := scannedPair(t, q, recs, bio.DefaultScoring())
			var first *Hit
			for qi := range brs {
				hits := brs[qi].Result.Hits
				for i := range hits {
					if hits[i].endI > swar.BlockRows && i%2 == 0 {
						corrupt(&hits[i])
						if first == nil {
							first = &hits[i]
						}
					}
				}
			}
			if first == nil {
				t.Fatal("no hit ends below the first block")
			}
			err := RealignBatch(context.Background(), queries, brs, recs, bio.Scoring{}, workers)
			if err == nil || !strings.Contains(err.Error(), "ends at the located cell") ||
				!strings.Contains(err.Error(), fmt.Sprintf("%q", first.ID)) {
				t.Fatalf("%s, workers %d: err = %v, want the failure on %s", name, workers, err, first.ID)
			}
			msgs = append(msgs, err.Error())
		}
		for _, m := range msgs[1:] {
			if m != msgs[0] {
				t.Errorf("%s: error depends on the worker count: %q vs %q", name, msgs[0], m)
			}
		}
	}
}

// TestLocateCatchesWrongScore: the scan's score is checked where its
// border row is — when the end block is replayed. Feed the locate step
// the heap entries of a real scan with one score off by one: a score
// too high is never reached, and under a scoring whose diagonal steps
// by 2 a score too low is stepped over, so both fail the batch with the
// disagreement error naming the hit, on any worker count.
func TestLocateCatchesWrongScore(t *testing.T) {
	q, recs := locateCase(17, 3000)
	sc := bio.Scoring{Match: 2, Mismatch: -3, Gap: -4}
	db := NewDB(recs)
	queries := []BatchQuery{{Seq: q}}
	// A one-worker fixed-route scan keeps every record on the packed
	// rungs and every entry in one heap.
	scan := func() []scored {
		t.Helper()
		st := &qstate{q: q, ctx: context.Background(), k: len(recs), scan: forceRouter(dispatch.GroupInter8)}
		heap := &topK{k: st.k}
		var al swar.Aligner
		var ps PruneStats
		var padded int64
		var buf groupScratch
		for _, group := range db.groups {
			if err := scanGroupFor(&al, st, db, group.recs, sc, false, heap, &ps, &padded, &buf, nil); err != nil {
				t.Fatal(err)
			}
		}
		ends := heap.items
		sort.Slice(ends, func(a, b int) bool { return ends[a].before(ends[b]) })
		return ends
	}
	for _, delta := range []int{+1, -1} {
		for _, workers := range []int{1, 3} {
			ends := scan()
			victim := -1
			hits := make([]Hit, len(ends))
			for i, it := range ends {
				if victim < 0 && it.endJ == 0 && it.endI > 0 {
					victim = i
					it.score += delta
				}
				hits[i] = Hit{Index: it.index, ID: recs[it.index].ID, Score: it.score}
			}
			if victim < 0 {
				t.Fatal("no packed hit ends below the first block")
			}
			out := []BatchResult{{Result: &Result{Hits: hits}}}
			err := finishHits(context.Background(), queries, out, recs, sc, workers, [][]scored{ends}, true)
			if err == nil || !strings.Contains(err.Error(), "disagrees with the exact rescan") ||
				!strings.Contains(err.Error(), fmt.Sprintf("%q", hits[victim].ID)) {
				t.Errorf("score %+d, workers %d: err = %v, want the disagreement on %s", delta, workers, err, hits[victim].ID)
			}
		}
	}
	// Untouched, the same entries locate and realign to the oracle's hits.
	ends := scan()
	hits := make([]Hit, len(ends))
	for i, it := range ends {
		hits[i] = Hit{Index: it.index, ID: recs[it.index].ID, Score: it.score}
	}
	out := []BatchResult{{Result: &Result{Hits: hits}}}
	if err := finishHits(context.Background(), queries, out, recs, sc, 2, [][]scored{ends}, true); err != nil {
		t.Fatal(err)
	}
	requireFullMatrixCoords(t, "located from heap entries", q, recs, sc, hits)
}

// FuzzStripRealignVsFull stretches fuzzer-chosen material into a query
// several blocks long — the raw bytes tiled, so maxima tie across
// blocks by construction — scans it against short fuzzer-cut targets
// under a fuzzer-chosen scoring, and requires the coordinates of every
// hit, realigned from the end cell the scan located, to be the whole
// matrix's. (It keeps the name of the strip rescan it was written
// against: its seed-corpus entries are tracked by that name.)
func FuzzStripRealignVsFull(f *testing.F) {
	f.Add([]byte("acgtacgtacgtacgtacgtaacc"), []byte("tacgtacgtttacgacgtacgtacgacgt"), uint8(0), uint8(9), uint8(3))
	f.Add([]byte("aaaaaaaaaaaaaaaat"), []byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"), uint8(3), uint8(40), uint8(0))
	f.Add([]byte("acgtnnacgtgca"), []byte("acgtnacgtnacgtn"), uint8(4), uint8(17), uint8(1))
	f.Add([]byte("g"), []byte{0, 1, 2, 3, 4, 5, 6, 7}, uint8(2), uint8(63), uint8(2))
	f.Fuzz(func(t *testing.T, rawQ, rawDB []byte, scheme, tiles, mode uint8) {
		if len(rawQ) == 0 {
			return
		}
		if len(rawQ) > 96 {
			rawQ = rawQ[:96]
		}
		// The tile count lands the query anywhere from one row to ~30
		// blocks; a one-base drift per tile keeps the copies from being
		// perfectly periodic.
		var q bio.Sequence
		for k := 0; k <= int(tiles)%20 && len(q) < 1900; k++ {
			for i, b := range rawQ {
				q = append(q, "ACGTN"[(int(b)+k*(i&1))%5])
			}
		}
		pool := make(bio.Sequence, 0, len(rawDB))
		for _, b := range rawDB {
			pool = append(pool, "ACGTN"[int(b)%5])
		}
		if len(pool) > 256 {
			pool = pool[:256]
		}
		var recs []bio.Record
		for lo, n := 0, 5; lo < len(pool); lo, n = lo+n, (n*7)%31+3 {
			recs = append(recs, bio.Record{ID: fmt.Sprintf("r%d", len(recs)), Seq: pool[lo:min(lo+n, len(pool))]})
		}
		recs = append(recs, bio.Record{ID: "tile", Seq: q[:min(len(q), len(rawQ))]})
		sc := locateScorings[int(scheme)%len(locateScorings)]
		opt := Options{Scoring: sc, TopK: int(mode)%5 + 3, Prune: mode&8 != 0}
		got, err := Run(q, recs, opt)
		if err != nil {
			t.Fatal(err)
		}
		requireFullMatrixCoords(t, "fuzz", q, recs, sc, got.Hits)
		if located, _ := realignCells(len(q), recs, got.Hits); got.RealignCells != located {
			t.Fatalf("realigned %d cells, the end blocks hold %d", got.RealignCells, located)
		}
	})
}

// TestFloorHintTrim pins what a FloorHint does to the finish pass of a
// shard's scan. The database holds every homolog twice, so scores tie
// in pairs; f is the 6th best score of the full database, tied by the
// 5th, and the scan covers it less one copy of the best homolog — as a
// shard covers part of a search whose K = 6 records clear f. Under
// the hint no hit scores below f, the hits at or above it are the
// unhinted scan's byte for byte, both copies tying f included, and
// fewer entries are located: under NoEndpoints the located end cell is
// what a hit carries.
func TestFloorHintTrim(t *testing.T) {
	g := bio.NewGenerator(40)
	q := g.Random(400)
	var recs []bio.Record
	for i := 0; i < 6; i++ {
		hom := append(g.Random(30), g.MutatedCopy(q[40*i:40*i+60+20*i], bio.DefaultMutationModel())...)
		for c := 0; c < 2; c++ {
			recs = append(recs, bio.Record{ID: fmt.Sprintf("hom%d.%d", i, c), Seq: hom})
		}
	}
	for i := 0; i < 40; i++ {
		recs = append(recs, bio.Record{ID: fmt.Sprintf("noise%d", i), Seq: g.Random(60 + i*37%200)})
	}
	full, err := RunCtx(context.Background(), q, NewDB(recs), Options{TopK: 8})
	if err != nil {
		t.Fatal(err)
	}
	h := full.Hits
	if len(h) < 8 || h[4].Score != h[5].Score || h[6].Score >= h[5].Score || h[0].Score == h[2].Score {
		t.Fatalf("the database does not tie its homologs in pairs: %+v", h)
	}
	f := h[5].Score
	var part []bio.Record
	for i, r := range recs {
		if i != h[0].Index {
			part = append(part, r)
		}
	}
	db := NewDB(part)
	for _, opt := range []Options{
		{TopK: 6, NoEndpoints: true, Workers: 1},
		{TopK: 6, NoEndpoints: true, Workers: 3, Prune: true},
		{TopK: 6, Workers: 2},
		{TopK: 6, Workers: 2, Prune: true},
	} {
		label := fmt.Sprintf("%+v", opt)
		run := func(hint func() int) *Result {
			brs, err := RunBatch(context.Background(), []BatchQuery{{Seq: q, FloorHint: hint}}, db, opt)
			if err != nil || brs[0].Err != nil {
				t.Fatalf("%s: %v %v", label, err, brs[0].Err)
			}
			return brs[0].Result
		}
		want, got := run(nil), run(func() int { return f })
		var keep []Hit
		for _, hit := range want.Hits {
			if hit.Score >= f {
				keep = append(keep, hit)
			}
		}
		if !slices.Equal(got.Hits, keep) {
			t.Errorf("%s: hinted hits %+v, want the unhinted ones ≥ %d: %+v", label, got.Hits, f, keep)
		}
		if ties := len(keep) - slices.IndexFunc(keep, func(h Hit) bool { return h.Score == f }); ties != 2 {
			t.Errorf("%s: %d hits tie the hint %d, want both copies", label, ties, f)
		}
		located := func(hits []Hit) (n int) {
			for _, hit := range hits {
				if hit.endJ > 0 || hit.TEnd > 0 {
					n++
				}
			}
			return n
		}
		if a, b := located(got.Hits), located(want.Hits); a != len(got.Hits) || a >= b {
			t.Errorf("%s: %d of %d hinted hits located, unhinted %d", label, a, len(got.Hits), b)
		}
		if !opt.NoEndpoints && got.RealignCells >= want.RealignCells {
			t.Errorf("%s: hinted realign cells %d, unhinted %d", label, got.RealignCells, want.RealignCells)
		}
	}
}
