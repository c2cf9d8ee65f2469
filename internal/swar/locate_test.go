package swar_test

import (
	"slices"
	"testing"

	"genomedsm/internal/align"
	"genomedsm/internal/bio"
	"genomedsm/internal/swar"
)

// locateSchemes are the scorings of search's FuzzStripRealignVsFull: the
// int8 lanes, the int16 retry of saturated lanes, and the scalar rung of
// lanes that overflow int16 too — whose scores mostly pass swar.LaneMax,
// so their items take LocateEnd, and whose seeds come from the matrix.
var locateSchemes = []bio.Scoring{
	{Match: 1, Mismatch: -1, Gap: -2},
	{Match: 2, Mismatch: -1, Gap: -1},
	{Match: 1, Mismatch: -3, Gap: -4},
	{Match: 25, Mismatch: -2, Gap: -3},
	{Match: 7000, Mismatch: -7000, Gap: -9000},
}

// locateLaneFits is the admission rule LocateLanes documents, restated:
// arguments LocateEnd accepts, a score below LaneMax, a Match of at most
// LaneMax and seed values in the int16 range.
func locateLaneFits(sc bio.Scoring, it swar.LocateItem) bool {
	if it.Block < 0 || it.Block*swar.BlockRows >= len(it.Q) || len(it.T) == 0 || it.Score <= 0 {
		return false
	}
	if len(it.Seed) != min(it.Block, 1)*len(it.T) || it.Score >= swar.LaneMax || sc.Match > swar.LaneMax {
		return false
	}
	return len(it.Seed) == 0 || slices.Max(it.Seed) <= 0x7FFF
}

// checkLocateLanes runs items through LocateLanes in calls of chunk
// items on every route and fails unless each item's result is
// LocateEnd's and exactly the items locateLaneFits admits ran in lanes
// on the AVX2 route (none on the portable one).
func checkLocateLanes(t *testing.T, lanes *swar.Aligner, sc bio.Scoring, items []swar.LocateItem, chunk int) {
	t.Helper()
	var oracle swar.Aligner
	for _, route := range swar.Routes() {
		restore := swar.UseRoute(route)
		laned, want := 0, 0
		for i := 0; i < len(items); i += chunk {
			laned += lanes.LocateLanes(sc, items[i:min(i+chunk, len(items))])
		}
		restore()
		for i, it := range items {
			ei, ej, ok := oracle.LocateEnd(it.Q, it.T, sc, it.Block, it.Seed, it.Score)
			if it.EndI != ei || it.EndJ != ej || it.OK != ok {
				t.Fatalf("%s: item %d (block %d of |q| %d, |t| %d, score %d): lanes (%d,%d) ok=%v, LocateEnd (%d,%d) ok=%v",
					route, i, it.Block, len(it.Q), len(it.T), it.Score, it.EndI, it.EndJ, it.OK, ei, ej, ok)
			}
			if locateLaneFits(sc, it) {
				want++
			}
		}
		if route == "portable" {
			want = 0
		}
		if laned != want {
			t.Fatalf("%s: %d of %d items ran in lanes, want %d", route, laned, len(items), want)
		}
	}
}

// FuzzLocateLanesVsLocate pins LocateLanes, the lane passes of the end
// block replay, to LocateEnd lane by lane, on both routes. A query of up
// to 200 rows — up to thirteen blocks, the last one partial — is scanned
// down the Ladder against 1–16 targets of mixed lengths cut from the
// target material, slices of the query planted in them when shape is
// odd so scores end in deep blocks. Each scoring target gives items
// with its score as scanned, one higher and one lower, replayed from
// its end block with the Ladder's own seed (or, for a target the scalar
// rung resolved, the scalar matrix's row), from block 0, from a middle
// block and from the last block with the matrix's rows: a replay that
// never reaches its score, or exceeds it first, must come back not ok
// in its lane exactly as in LocateEnd. The items are cut into
// LocateLanes calls of 1–16 (partly filled passes).
func FuzzLocateLanesVsLocate(f *testing.F) {
	f.Add(fuzzBases(200, 1), fuzzBases(300, 2), uint8(0), uint8(15), uint8(1))
	f.Add(fuzzBases(200, 3), fuzzBases(40, 4), uint8(1), uint8(3), uint8(0))
	f.Add(fuzzBases(37, 5), fuzzBases(500, 6), uint8(2), uint8(7), uint8(9))
	f.Add(fuzzBases(160, 7), fuzzBases(160, 8), uint8(3), uint8(0), uint8(3))
	f.Add(fuzzBases(100, 9), fuzzBases(120, 10), uint8(4), uint8(5), uint8(5))
	// N runs in the query and the targets.
	withN := append(append(fuzzBases(60, 11), 4, 4, 4, 4, 4), fuzzBases(70, 12)...)
	f.Add(withN, append(append([]byte{4, 4, 4}, withN...), 4, 4), uint8(0), uint8(11), uint8(7))
	// One-base targets, and a query of one row.
	f.Add(fuzzBases(50, 13), fuzzBases(16, 14), uint8(1), uint8(15), uint8(30))
	f.Add([]byte{2}, []byte{2, 2, 1}, uint8(0), uint8(2), uint8(0))

	var lanes swar.Aligner // reused across inputs, as a finish worker does
	f.Fuzz(func(t *testing.T, rawQ, rawT []byte, scheme, hits, shape uint8) {
		q := fuzzSeq(rawQ, 200)
		pool := fuzzSeq(rawT, 600)
		if len(q) == 0 || len(pool) == 0 {
			return
		}
		sc := locateSchemes[int(scheme)%len(locateSchemes)]
		n := int(hits)%swar.BeginLanes + 1
		// Cut the pool into n targets of mixed lengths: piece i takes a
		// share growing with i·shape, at least one base.
		var targets []bio.Sequence
		for i, at := 0, 0; i < n; i++ {
			size := max(1, (len(pool)/n)*(1+(i*int(shape+1))%3)/2)
			tgt := slices.Clone(pool[at%len(pool) : min(len(pool), at%len(pool)+size)])
			if shape%2 == 1 && len(q) > 4 {
				// Plant a slice of the query, ending on a row that moves with i.
				end := len(q) - (i*37+int(shape))%(len(q)/2+1)
				begin := max(0, end-20-i*3)
				tgt = append(append(tgt[:len(tgt)/2:len(tgt)/2], q[begin:end]...), tgt[len(tgt)/2:]...)
			}
			targets = append(targets, tgt)
			at += size
		}
		var items []swar.LocateItem
		blocks := swar.BlockOf(len(q)) + 1
		for g := 0; g < len(targets); g += 8 {
			group := targets[g:min(g+8, len(targets))]
			res := lanes.Ladder(q, group, sc, swar.RungInter8, nil, nil)
			for i, tgt := range group {
				score := res.Scores[i]
				if score == 0 {
					continue
				}
				full, err := align.NewSWMatrix(q, tgt, sc)
				if err != nil {
					t.Fatal(err)
				}
				end := res.EndBlock[i]
				seed := matrixRow(full, end*swar.BlockRows)
				if res.Seeded>>i&1 != 0 {
					seed = slices.Clone(lanes.Seed(i))
				}
				replays := []struct {
					block int
					seed  []uint16
				}{
					{end, seed},
					{0, nil},
					{blocks / 2, matrixRow(full, blocks/2*swar.BlockRows)},
					{blocks - 1, matrixRow(full, (blocks-1)*swar.BlockRows)},
				}
				for _, r := range replays {
					for _, d := range []int{0, 1, -1} {
						items = append(items, swar.LocateItem{Q: q, T: tgt, Block: r.block, Seed: r.seed, Score: score + d})
					}
				}
			}
		}
		checkLocateLanes(t, &lanes, sc, items, n)
	})
}

// TestLocateLanesAnyBytes: a lane's target codes are LaneTarget's for
// every byte value, not only the normalized bases — lowercase and
// arbitrary bytes are 'N' to bio.Substitution — on targets whose lengths
// leave every residue mod 8 to the word-at-a-time columns of the fill.
func TestLocateLanesAnyBytes(t *testing.T) {
	sc := bio.DefaultScoring()
	all := make(bio.Sequence, 256)
	for b := range all {
		all[b] = byte(b)
	}
	q := append(append(bio.Sequence{}, all[60:90]...), all[:]...)
	var items []swar.LocateItem
	for n := 1; n <= 16; n++ {
		tgt := append(bio.MustSequence("ACGTACGTTGCA")[:n%12], all[n*13%256:]...)
		tgt = append(tgt, all[:n*7]...)
		r, err := align.Scan(q, tgt, sc, align.ScanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		full, err := align.NewSWMatrix(q, tgt, sc)
		if err != nil {
			t.Fatal(err)
		}
		block := swar.BlockOf(r.BestI)
		items = append(items, swar.LocateItem{Q: q, T: tgt, Block: block, Seed: matrixRow(full, block*swar.BlockRows), Score: r.BestScore})
	}
	var lanes swar.Aligner
	checkLocateLanes(t, &lanes, sc, items, swar.BeginLanes)
	for i, it := range items {
		if !it.OK {
			t.Errorf("item %d: no end cell located", i)
		}
	}
}

// TestLocateLanesWideSeed: a seed value past the int16 range keeps its
// item out of the lanes — it runs LocateEnd, among lanes of the same
// pass — and under a gap so steep that the value reaches no cell, the
// item still locates its end cell.
func TestLocateLanesWideSeed(t *testing.T) {
	sc := bio.Scoring{Match: 2, Mismatch: -3, Gap: -40000}
	g := bio.NewGenerator(31)
	var items []swar.LocateItem
	for i := range 6 {
		q := g.Random(150)
		tgt := append(append(g.Random(30+i), q[70+i:110]...), g.Random(20)...)
		r, err := align.Scan(q, tgt, sc, align.ScanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		full, err := align.NewSWMatrix(q, tgt, sc)
		if err != nil {
			t.Fatal(err)
		}
		block := swar.BlockOf(r.BestI)
		seed := matrixRow(full, block*swar.BlockRows)
		if block == 0 || r.BestJ == len(tgt) {
			t.Fatalf("case %d ends on (%d,%d): want a block past the first, a column before the last", i, r.BestI, r.BestJ)
		}
		items = append(items,
			swar.LocateItem{Q: q, T: tgt, Block: block, Seed: seed, Score: r.BestScore},
			swar.LocateItem{Q: q, T: tgt, Block: block, Seed: wideSeed(seed), Score: r.BestScore})
	}
	var lanes swar.Aligner
	checkLocateLanes(t, &lanes, sc, items, swar.BeginLanes)
	for i, it := range items {
		if !it.OK {
			t.Errorf("item %d: no end cell located", i)
		}
	}
}
