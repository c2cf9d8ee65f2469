package search

import (
	"fmt"
	"testing"

	"genomedsm/internal/bio"
	"genomedsm/internal/dispatch"
)

// forceRouter builds a router whose test hooks pin every lane group to
// groupRoute and every pairwise realign to pairRoute, regardless of
// workload — the adversarial mis-route the dispatch layer must survive
// bit-exactly.
func forceRouter(groupRoute dispatch.GroupRoute, pairRoute dispatch.PairRoute) *dispatch.Router {
	r := dispatch.New(dispatch.ModeAuto, nil)
	r.ForceGroup = func(qLen int, lens []int) (dispatch.GroupRoute, bool) { return groupRoute, true }
	r.ForcePair = func(m, n int) (dispatch.PairRoute, bool) { return pairRoute, true }
	return r
}

// inter16Router forces every lane group to start at the int16 rung —
// how tests reach the route the retired Lanes: 16 selected.
func inter16Router() *dispatch.Router {
	r := dispatch.New(dispatch.ModeAuto, nil)
	r.ForceGroup = func(int, []int) (dispatch.GroupRoute, bool) { return dispatch.GroupInter16, true }
	return r
}

// kernelAxis is the kernel axis of the differential suites: the routing
// rule (the int8 ladder), the forced int16 start, the forced scalar
// route and the scalar reference scorer.
var kernelAxis = []struct {
	name string
	opt  Options
}{
	{"auto", Options{}},
	{"inter16", Options{Router: inter16Router()}},
	{"scalar", Options{Dispatch: "scalar"}},
	{"reference", Options{Lanes: 1}},
}

// runForced runs one scan with its lane groups (Options.Router) and its
// realign align.Scan calls (the process-wide active router) down r's
// forced routes, restoring the active router afterwards. Tests in this
// package do not run in parallel, so mutating that global is safe.
func runForced(q bio.Sequence, db []bio.Record, opt Options, r *dispatch.Router) (*Result, error) {
	opt.Router = r
	dispatch.SetActive(r)
	defer dispatch.SetActive(nil)
	return Run(q, db, opt)
}

var allGroupRoutes = []dispatch.GroupRoute{
	dispatch.GroupInter8, dispatch.GroupInter16, dispatch.GroupScalar,
}

var allPairRoutes = []dispatch.PairRoute{
	dispatch.PairStriped8, dispatch.PairStriped16, dispatch.PairScalar,
}

// TestDispatchForcedRoutesBitExact is the deterministic mis-route
// differential: every GroupRoute × PairRoute combination — including
// provably wrong ones like forcing an int8 word-pass on an int16-only
// scoring — must return the scalar reference's hits bit-for-bit
// (records, scores, coordinates, tie-break order).
func TestDispatchForcedRoutesBitExact(t *testing.T) {
	g := bio.NewGenerator(71)
	q := g.Random(240)
	db := testDB(t, 72, q, 24, 8)
	scorings := []bio.Scoring{
		bio.DefaultScoring(),
		{Match: 25, Mismatch: -2, Gap: -3},         // saturates int8
		{Match: 7000, Mismatch: -7000, Gap: -9000}, // int16-only
	}
	for si, sc := range scorings {
		// Reference: the scalar reference scorer, no router involved.
		want, err := Run(q, db, Options{Scoring: sc, TopK: 8, Lanes: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, gr := range allGroupRoutes {
			for _, pr := range allPairRoutes {
				name := fmt.Sprintf("scoring%d/%v/%v", si, gr, pr)
				got, err := runForced(q, db, Options{Scoring: sc, TopK: 8}, forceRouter(gr, pr))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if len(got.Hits) != len(want.Hits) {
					t.Fatalf("%s: %d hits, want %d\ngot:  %+v\nwant: %+v",
						name, len(got.Hits), len(want.Hits), got.Hits, want.Hits)
				}
				for i := range want.Hits {
					if got.Hits[i] != want.Hits[i] {
						t.Fatalf("%s: hit %d = %+v, want %+v", name, i, got.Hits[i], want.Hits[i])
					}
				}
				if got.Cells != want.Cells {
					t.Fatalf("%s: cells %d, want %d", name, got.Cells, want.Cells)
				}
				if got.PaddedCells < got.Cells {
					t.Fatalf("%s: padded %d < cells %d", name, got.PaddedCells, got.Cells)
				}
			}
		}
	}
}

// TestDispatchOptionModes checks the user-facing Options.Dispatch knob:
// every mode returns the same hits, and an unknown mode is an error.
func TestDispatchOptionModes(t *testing.T) {
	g := bio.NewGenerator(81)
	q := g.Random(300)
	db := testDB(t, 82, q, 20, 6)
	want, err := Run(q, db, Options{TopK: 6, Lanes: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"", "auto", "fixed", "scalar"} {
		got, err := Run(q, db, Options{TopK: 6, Dispatch: mode})
		if err != nil {
			t.Fatalf("dispatch=%q: %v", mode, err)
		}
		if len(got.Hits) != len(want.Hits) {
			t.Fatalf("dispatch=%q: %d hits, want %d", mode, len(got.Hits), len(want.Hits))
		}
		for i := range want.Hits {
			if got.Hits[i] != want.Hits[i] {
				t.Fatalf("dispatch=%q hit %d: %+v, want %+v", mode, i, got.Hits[i], want.Hits[i])
			}
		}
	}
	if _, err := Run(q, db, Options{TopK: 6, Dispatch: "warp"}); err == nil {
		t.Fatal("unknown dispatch mode accepted")
	}
	// The scalar reference scorer uses no router; Dispatch is ignored,
	// not an error, even when invalid.
	if _, err := Run(q, db, Options{TopK: 6, Lanes: 1, Dispatch: "warp"}); err != nil {
		t.Fatalf("the reference scorer should ignore dispatch: %v", err)
	}
	// Lanes is no longer a kernel knob: the old forced-kernel values are
	// rejected, pointing at Dispatch.
	for _, lanes := range []int{8, 16} {
		if _, err := Run(q, db, Options{TopK: 6, Lanes: lanes}); err == nil {
			t.Fatalf("lanes=%d accepted", lanes)
		}
	}
}

// TestRoutesIndependentOfSchedule: routing is a function of its inputs,
// so a database whose int8-saturating homologs come first in scan order
// — the shape that once flipped routes by the order the workers
// reported saturation in — routes every lane group to inter8, with the
// same counts for every worker count and every repeat run.
func TestRoutesIndependentOfSchedule(t *testing.T) {
	g := bio.NewGenerator(93)
	q := g.Random(300)
	var db []bio.Record
	for i := 0; i < 16; i++ {
		// Full-query homologs padded to be the longest records: each
		// scores ≥ 300, far above the int8 clean cap.
		pad := g.Random(120 + i)
		db = append(db, bio.Record{ID: fmt.Sprintf("hom%d", i), Seq: append(pad.Clone(), q...)})
	}
	for i := 0; i < 48; i++ {
		db = append(db, bio.Record{ID: fmt.Sprintf("noise%d", i), Seq: g.Random(100 + i*3)})
	}
	var want map[string]int64
	for _, workers := range []int{1, 2, 4} {
		for run := 0; run < 2; run++ {
			r := dispatch.New(dispatch.ModeAuto, nil)
			res, err := Run(q, db, Options{Router: r, Workers: workers, NoEndpoints: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Hits[0].Score <= bio.PackedCap8 {
				t.Fatalf("top hit scores %d: the homologs do not saturate int8", res.Hits[0].Score)
			}
			got := r.GroupCounts()
			if len(got) != 1 || got["inter8"] == 0 {
				t.Fatalf("workers %d run %d: routes %v, want inter8 only", workers, run, got)
			}
			if want == nil {
				want = got
			} else if got["inter8"] != want["inter8"] {
				t.Fatalf("workers %d run %d: routes %v, want %v", workers, run, got, want)
			}
		}
	}
}

// TestDispatchPrunedForcedRoutes drives the pruning pipeline down each
// forced group route: the exact top-K contract must hold on every rung
// (pruned partial scans flow through the same bound logic regardless of
// the kernel that produced them).
func TestDispatchPrunedForcedRoutes(t *testing.T) {
	g := bio.NewGenerator(91)
	q := g.Random(200)
	db := testDB(t, 92, q, 30, 10)
	sc := bio.Scoring{Match: 25, Mismatch: -2, Gap: -3}
	want, err := Run(q, db, Options{Scoring: sc, TopK: 5, Lanes: 1, NoEndpoints: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, gr := range allGroupRoutes {
		got, err := runForced(q, db, Options{Scoring: sc, TopK: 5, Prune: true, NoEndpoints: true}, forceRouter(gr, dispatch.PairScalar))
		if err != nil {
			t.Fatalf("%v: %v", gr, err)
		}
		if len(got.Hits) != len(want.Hits) {
			t.Fatalf("%v: %d hits, want %d", gr, len(got.Hits), len(want.Hits))
		}
		for i := range want.Hits {
			if got.Hits[i] != want.Hits[i] {
				t.Fatalf("%v: hit %d = %+v, want %+v", gr, i, got.Hits[i], want.Hits[i])
			}
		}
		if st := got.Prune; st == nil {
			t.Fatalf("%v: pruned run returned no stats", gr)
		} else if n := st.Skipped + st.Abandoned + st.Scanned; n != got.Searched {
			t.Fatalf("%v: stats cover %d of %d records", gr, n, got.Searched)
		}
	}
}

// FuzzDispatchVsScalar fuzzes the routing layer the same way
// FuzzPrunedSearchVsFull fuzzes pruning: fuzzer-chosen databases,
// queries and scorings run down a fuzzer-forced (usually wrong) route
// and must match the scalar lane path bit-exactly.
func FuzzDispatchVsScalar(f *testing.F) {
	f.Add([]byte("acgtacgtacgtacgtacgt"), []byte("tacgtacgtttacgacgtacgtacgacgt"), uint8(0), uint8(0), uint8(0))
	f.Add([]byte("aaaaaaaaaaaaaaaa"), []byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"), uint8(1), uint8(1), uint8(5))
	f.Add([]byte{}, []byte{0, 1, 2, 3, 4, 5, 6, 7}, uint8(2), uint8(7), uint8(2))
	f.Add([]byte("nnnnnnnnnn"), []byte("acgtnacgtnacgtn"), uint8(1), uint8(11), uint8(9))
	// The packed kernels advance two query rows per pass: a one-row query,
	// odd queries (the last row pairs with a phantom 'N' row) on the int8
	// and int16 routes, and a one-base record (a one-word row buffer).
	f.Add([]byte("a"), []byte("acgtacgtacgtacgtaaaa"), uint8(0), uint8(0), uint8(0))
	f.Add([]byte("acgtacgtacgtacgta"), []byte("tacgtacgtttacgacgtacgtacgacgt"), uint8(0), uint8(0), uint8(1))
	f.Add([]byte("aaaaaaaaaaaaaaa"), []byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"), uint8(1), uint8(1), uint8(3))
	f.Add([]byte("acgtacg"), []byte("a"), uint8(0), uint8(0), uint8(0))
	// An all-'N' query under pruning: no record can score, every one is
	// skipped, and the scan computes no cell at all.
	f.Add([]byte("1"), []byte("0"), uint8(0), uint8(0), uint8(79))
	f.Fuzz(func(t *testing.T, rawQ, rawDB []byte, scheme, routeByte, mode uint8) {
		q := make(bio.Sequence, 0, len(rawQ))
		for _, b := range rawQ {
			q = append(q, "ACGTN"[int(b)%5])
		}
		if len(q) > 96 {
			q = q[:96]
		}
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
		opt := Options{Scoring: sc, TopK: int(mode)%7 + 1}
		switch mode % 3 {
		case 1:
			opt.Prune = true
		case 2:
			opt.MinScore = sc.Match * 2
		}

		ref := opt
		ref.Lanes = 1
		want, err := Run(q, db, ref)
		if err != nil {
			t.Fatal(err)
		}

		gr := allGroupRoutes[int(routeByte)%len(allGroupRoutes)]
		pr := allPairRoutes[int(routeByte/4)%len(allPairRoutes)]
		got, err := runForced(q, db, opt, forceRouter(gr, pr))
		if err != nil {
			t.Fatal(err)
		}

		if len(got.Hits) != len(want.Hits) {
			t.Fatalf("route %v/%v: %d hits, scalar %d\nrouted: %+v\nscalar: %+v",
				gr, pr, len(got.Hits), len(want.Hits), got.Hits, want.Hits)
		}
		for i := range want.Hits {
			if got.Hits[i] != want.Hits[i] {
				t.Fatalf("route %v/%v hit %d: routed %+v, scalar %+v", gr, pr, i, got.Hits[i], want.Hits[i])
			}
		}
		// A scan computes every true cell it does not report as saved by
		// pruning (PruneStats.CellsSaved), padding on top.
		computed := got.Cells
		if got.Prune != nil {
			computed -= got.Prune.CellsSaved
		}
		if got.PaddedCells < computed {
			t.Fatalf("route %v/%v: padded %d < cells %d", gr, pr, got.PaddedCells, computed)
		}
	})
}
