package search

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"genomedsm/internal/align"
	"genomedsm/internal/bio"
	"genomedsm/internal/dispatch"
	"genomedsm/internal/swar"
)

// The strip re-alignment suite: RealignBatch rescans only the rows the
// scan's end-row block allows, and everything below pins that the
// coordinates are still those of the whole matrix.

// stripScorings covers the rungs a hit's block can come from: the int8
// lanes, the int16 retry of saturated lanes, and the scalar rung of
// lanes that overflow int16 too.
var stripScorings = []bio.Scoring{
	{Match: 1, Mismatch: -1, Gap: -2},
	{Match: 2, Mismatch: -1, Gap: -1},
	{Match: 1, Mismatch: -3, Gap: -4},
	{Match: 25, Mismatch: -2, Gap: -3},         // saturates int8
	{Match: 7000, Mismatch: -7000, Gap: -9000}, // int16-only
}

// stripCase builds the shape the strip exists for — a query much longer
// than its 40–600 bp targets — with everything that could move an end
// cell: one motif repeated every 700–1000 query rows, so the maximum
// against its target ties across blocks and only the first occurrence
// may win; motifs ending exactly on rows 64, 65 and 128, the edges of
// the first blocks; N runs in the query and in a target; a mutated
// homolog; and plain noise.
func stripCase(seed int64, qLen int) (bio.Sequence, []bio.Record) {
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
	for _, end := range []int{64, 65, 128} {
		if end <= qLen {
			m := g.Random(22)
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

// requireFullMatrixCoords checks every hit against the oracle the strip
// must reproduce: a forced-scalar align.Scan of the whole matrix for
// the end cell, ReverseRetrieve from it for the start.
func requireFullMatrixCoords(t *testing.T, label string, q bio.Sequence, recs []bio.Record, sc bio.Scoring, hits []Hit) {
	t.Helper()
	for _, h := range hits {
		tgt := recs[h.Index].Seq
		r, err := align.Scan(q, tgt, sc, align.ScanOptions{ForceScalar: true})
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

// stripCells is the most forward cells the strips of hits may cover,
// Σ min(|q|, rowSpan + one block) · |t|, and fullCells the whole
// matrices, Σ |q|·|t|.
func stripCells(qLen int, recs []bio.Record, sc bio.Scoring, hits []Hit) (strip, full int64) {
	for _, h := range hits {
		n := len(recs[h.Index].Seq)
		strip += int64(min(qLen, rowSpan(n, sc)+swar.BlockRows)) * int64(n)
		full += int64(qLen) * int64(n)
	}
	return strip, full
}

// TestStripRealignMatchesFullMatrix is the differential: over query
// lengths on both sides of a block edge and far past any target, every
// scoring of stripScorings, one worker and several, pruned and not, the
// routed scan's coordinates are the whole matrix's, the reference scan
// agrees while still paying for whole matrices, and the routed one pays
// for strips.
func TestStripRealignMatchesFullMatrix(t *testing.T) {
	for _, qLen := range []int{64, 65, 4000, 20000} {
		q, recs := stripCase(int64(qLen), qLen)
		db := NewDB(recs)
		for si, sc := range stripScorings {
			if qLen == 20000 && testing.Short() && si > 0 {
				continue
			}
			ref, err := RunCtx(context.Background(), q, db, Options{Scoring: sc, TopK: len(recs), Lanes: 1})
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("|q|=%d scoring %+v", qLen, sc)
			requireFullMatrixCoords(t, label+" reference", q, recs, sc, ref.Hits)
			strip, full := stripCells(qLen, recs, sc, ref.Hits)
			if ref.RealignCells != full {
				t.Errorf("%s: the reference realigned %d cells, want the whole matrices' %d", label, ref.RealignCells, full)
			}
			for _, opt := range []Options{{Workers: 1}, {Workers: 4, Prune: true}} {
				opt.Scoring, opt.TopK = sc, len(recs)
				got, err := RunCtx(context.Background(), q, db, opt)
				if err != nil {
					t.Fatalf("%s %+v: %v", label, opt, err)
				}
				requireSameHits(t, fmt.Sprintf("%s workers %d prune %v", label, opt.Workers, opt.Prune), got.Hits, ref.Hits)
				if got.RealignCells > strip {
					t.Errorf("%s: realigned %d cells, the strips allow %d", label, got.RealignCells, strip)
				}
			}
			// The strips themselves down every pairwise rung (4 000 rows
			// already strip targets of 600; the longest query adds nothing).
			for _, pr := range allPairRoutes {
				if qLen == 20000 {
					break
				}
				got, err := runForced(q, recs, Options{Scoring: sc, TopK: len(recs)}, forceRouter(dispatch.GroupInter8, pr))
				if err != nil {
					t.Fatalf("%s %v: %v", label, pr, err)
				}
				requireSameHits(t, fmt.Sprintf("%s strips on %v", label, pr), got.Hits, ref.Hits)
			}
			if qLen == 20000 && strip*4 > full {
				t.Errorf("%s: strips of %d cells against matrices of %d: the shape no longer exercises the strip", label, strip, full)
			}
		}
	}
}

// TestEndBlockCanonical: the block a NoEndpoints scan leaves on a hit
// is (BestI−1)/64 of the forced-scalar whole-matrix scan, whichever
// rung scored the record — every forced lane-group route, on the inputs
// and scorings of TestDispatchForcedRoutesBitExact and on a longer
// query whose maxima tie across blocks — on 1 and 4 workers, pruned or
// not, with or without the lane layout. (The pairwise routes only act
// in the re-alignment, which consumes the block: that test and
// TestStripRealignMatchesFullMatrix force them over the strips.)
func TestEndBlockCanonical(t *testing.T) {
	g := bio.NewGenerator(71)
	q240 := g.Random(240)
	long, longRecs := stripCase(5, 2500)
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
			want := make(map[int]int)
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
					opt.Scoring, opt.TopK, opt.NoEndpoints, opt.Router = sc, 8, true, forceRouter(gr, dispatch.PairScalar)
					got, err := RunCtx(context.Background(), in.q, variant.db, opt)
					if err != nil {
						t.Fatal(err)
					}
					if len(got.Hits) == 0 {
						t.Fatalf("|q|=%d scoring%d: no hits", len(in.q), si)
					}
					for _, h := range got.Hits {
						if _, ok := want[h.Index]; !ok {
							sr, err := align.Scan(in.q, in.recs[h.Index].Seq, sc, align.ScanOptions{ForceScalar: true})
							if err != nil {
								t.Fatal(err)
							}
							want[h.Index] = (sr.BestI-1)/64 + 1
						}
						if h.endBlock != want[h.Index] {
							t.Errorf("|q|=%d scoring%d %v workers %d prune %v layout %v: %s carries block %d, scalar oracle %d",
								len(in.q), si, gr, opt.Workers, opt.Prune, variant.db == withLay, h.ID, h.endBlock-1, want[h.Index]-1)
						}
					}
				}
			}
		}
	}
}

// TestRealignHandBuiltHits: a Hit that never saw a scan carries no
// block and still realigns, over the whole matrix, to the coordinates
// of the scanned one.
func TestRealignHandBuiltHits(t *testing.T) {
	q, recs := stripCase(11, 6000)
	sc := bio.DefaultScoring()
	scanned, err := Run(q, recs, Options{TopK: len(recs)})
	if err != nil {
		t.Fatal(err)
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
	strip, full := stripCells(len(q), recs, sc, built)
	if out[0].Result.RealignCells != full {
		t.Errorf("hand-built hits realigned %d cells, want the whole matrices' %d", out[0].Result.RealignCells, full)
	}
	if scanned.RealignCells > strip || scanned.RealignCells >= full {
		t.Errorf("scanned hits realigned %d cells: strips allow %d, whole matrices are %d", scanned.RealignCells, strip, full)
	}
}

// TestRealignWrongBlockIsAnError: the score check is the safety net
// under the hint too. Every row above a hit's end block holds less than
// its score, so a block one too early cannot contain it, and the batch
// fails — naming the first such hit in (query, hit) order on any worker
// count — instead of quietly rescanning more.
func TestRealignWrongBlockIsAnError(t *testing.T) {
	q, recs := stripCase(13, 5000)
	var msgs []string
	for _, workers := range []int{1, 2, 4} {
		brs, err := RunBatch(context.Background(), []BatchQuery{{Seq: q}, {Seq: q[1000:]}}, NewDB(recs),
			Options{TopK: len(recs), NoEndpoints: true})
		if err != nil {
			t.Fatal(err)
		}
		var first *Hit
		for qi := range brs {
			hits := brs[qi].Result.Hits
			for i := range hits {
				if hits[i].endBlock >= 2 && i%2 == 0 {
					hits[i].endBlock--
					if first == nil {
						first = &hits[i]
					}
				}
			}
		}
		if first == nil {
			t.Fatal("no hit ends below the first block")
		}
		err = RealignBatch(context.Background(), []BatchQuery{{Seq: q}, {Seq: q[1000:]}}, brs, recs, bio.Scoring{}, workers)
		if err == nil || !strings.Contains(err.Error(), "disagrees with the exact rescan") ||
			!strings.Contains(err.Error(), fmt.Sprintf("%q", first.ID)) {
			t.Fatalf("workers %d: err = %v, want the disagreement on %s", workers, err, first.ID)
		}
		msgs = append(msgs, err.Error())
	}
	for _, m := range msgs[1:] {
		if m != msgs[0] {
			t.Errorf("error depends on the worker count: %q vs %q", msgs[0], m)
		}
	}
}

// FuzzStripRealignVsFull stretches fuzzer-chosen material into a query
// several blocks long — the raw bytes tiled, so maxima tie across
// blocks by construction — scans it against short fuzzer-cut targets
// under a fuzzer-chosen scoring, and requires the strip-realigned
// coordinates of every hit to be the whole matrix's.
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
		sc := stripScorings[int(scheme)%len(stripScorings)]
		opt := Options{Scoring: sc, TopK: int(mode)%5 + 3, Prune: mode&8 != 0}
		got, err := Run(q, recs, opt)
		if err != nil {
			t.Fatal(err)
		}
		requireFullMatrixCoords(t, "fuzz", q, recs, sc, got.Hits)
		if strip, _ := stripCells(len(q), recs, sc, got.Hits); got.RealignCells > strip {
			t.Fatalf("realigned %d cells, the strips allow %d", got.RealignCells, strip)
		}
	})
}
