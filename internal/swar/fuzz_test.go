package swar_test

import (
	"bytes"
	"math/rand"
	"testing"

	"genomedsm/internal/align"
	"genomedsm/internal/bio"
	"genomedsm/internal/swar"
)

// fuzzSeq maps arbitrary bytes to the DNA alphabet including 'N', so the
// fuzzer exercises the wildcard rule alongside the four bases.
func fuzzSeq(raw []byte, limit int) bio.Sequence {
	if len(raw) > limit {
		raw = raw[:limit]
	}
	s := make(bio.Sequence, len(raw))
	for i, b := range raw {
		s[i] = "ACGTN"[int(b)%5]
	}
	return s
}

// fuzzBases returns n raw bytes that fuzzSeq maps to random bases, no
// 'N', from a fixed seed.
func fuzzBases(n int, seed int64) []byte {
	r := rand.New(rand.NewSource(seed))
	raw := make([]byte, n)
	for i := range raw {
		raw[i] = byte(r.Intn(4))
	}
	return raw
}

// FuzzScoresVsScalar drives the full int8→int16→scalar chain — every
// starting rung, bounded and unbounded, with and without provided code
// words (checkLadder) — against the scalar align.Scan on arbitrary
// query/target bytes, splitting the
// target material into lanes of fuzzer-chosen uneven lengths. cut1/cut2
// and the repeat count shape the lane group so the fuzzer can construct
// empty lanes, duplicate lanes and high-identity (saturating) lanes.
// The oracle covers where each score ends as well: the pairwise rungs'
// end cell, the packed rungs' saved border row against the full scalar
// matrix, and LocateEnd's replay from it. Queries reach 200 rows, so a
// score can end in any of four blocks.
func FuzzScoresVsScalar(f *testing.F) {
	f.Add([]byte("acgtacgtacgt"), []byte("tacgtacg"), uint8(3), uint8(5), uint8(2))
	f.Add([]byte{}, []byte{1, 2, 3, 4}, uint8(0), uint8(0), uint8(9))
	f.Add([]byte("aaaaaaaaaaaaaaaa"), []byte("aaaaaaaaaaaaaaaa"), uint8(8), uint8(16), uint8(6))
	// The packed kernels advance two query rows per pass: a one-row query,
	// odd queries (the last row pairs with a phantom 'N' row), with and
	// without identity lanes, and one-base targets (a one-word row buffer).
	f.Add([]byte("a"), []byte("acgtacgta"), uint8(1), uint8(2), uint8(1))
	f.Add([]byte("acgtacgtacgtacg"), []byte("tacgtacgnacgtta"), uint8(4), uint8(9), uint8(0))
	f.Add([]byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"), []byte("aaaaaaaaaaaaaaaaa"), uint8(3), uint8(7), uint8(5))
	f.Add([]byte("acgtacg"), []byte("a"), uint8(0), uint8(1), uint8(0))
	// Three blocks of query: scores that end past the first block, so the
	// saved border row is a real row.
	f.Add(bytes.Repeat([]byte("acgttgcaatc"), 15), []byte("ttgcaatcacgtacgttgca"), uint8(6), uint8(13), uint8(1))
	// The int16 retry resumes at the row entering the block of the int8
	// pass's first guard bit. One lane, q[40:190], first passes 127 at row
	// 168: the retry resumes at row 128, and with the other two lanes
	// empty the int8 pass stops after row 192.
	q200 := fuzzBases(200, 1)
	f.Add(q200, q200[40:190], uint8(150), uint8(150), uint8(0))
	// A 199-row query: five copies of it flag in block 1 and the pool lane
	// q[39:199] in block 2, so the retry resumes at row 64; once the
	// copies are flagged the int8 pass runs on the pool lane's 160 columns
	// alone, and it stops after row 192.
	q199 := fuzzBases(199, 2)
	f.Add(q199, q199[39:], uint8(0), uint8(0), uint8(5))
	f.Fuzz(func(t *testing.T, rawQ, rawT []byte, cut1, cut2, rep uint8) {
		q := fuzzSeq(rawQ, 200)
		pool := fuzzSeq(rawT, 160)
		a, b := int(cut1)%(len(pool)+1), int(cut2)%(len(pool)+1)
		if a > b {
			a, b = b, a
		}
		targets := []bio.Sequence{pool[:a], pool[a:b], pool[b:]}
		// Repeating the query as a lane forces identity scores — on long
		// inputs these saturate int8 and exercise the fallback.
		for i := 0; i < int(rep)%6; i++ {
			targets = append(targets, q)
		}
		want := make([]int, len(targets))
		for i, tgt := range targets {
			r, err := align.Scan(q, tgt, bio.DefaultScoring(), align.ScanOptions{ForceScalar: true})
			if err != nil {
				t.Fatal(err)
			}
			want[i] = r.BestScore
		}
		checkLadder(q, targets, bio.DefaultScoring(), want, t.Fatalf)
	})
}

// FuzzStripedVsScalar drives the striped rungs and align.Scan's ladder
// (striped int8 → int16 → scalar, opened by the process router) against
// the forced-scalar align.Scan on arbitrary sequence pairs and three
// scoring schemes, checking score AND end-coordinate bit-exactness.
// The high-reward scheme saturates int8 within 6 matches and int16
// within ~5, exercising every rung of the fallback ladder. The seeds
// include a pair under the router's scalar cell cutoff and a 513-row
// query.
func FuzzStripedVsScalar(f *testing.F) {
	f.Add([]byte("acgtacgtacgt"), []byte("tacgtacg"), uint8(0))
	f.Add([]byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"), []byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"), uint8(1))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8}, []byte{8, 7, 6, 5, 4}, uint8(2))
	f.Add([]byte("acgt"), []byte("acg"), uint8(0))
	f.Add(fuzzBases(513, 5), fuzzBases(40, 6), uint8(1))
	f.Fuzz(func(t *testing.T, rawS, rawT []byte, scheme uint8) {
		s := fuzzSeq(rawS, 600)
		tt := fuzzSeq(rawT, 128)
		scorings := []bio.Scoring{
			bio.DefaultScoring(),
			{Match: 25, Mismatch: -2, Gap: -3},         // saturates int8 in 6 matches
			{Match: 7000, Mismatch: -7000, Gap: -9000}, // no int8 layout, saturates int16 in 5
		}
		sc := scorings[int(scheme)%len(scorings)]
		r, err := align.Scan(s, tt, sc, align.ScanOptions{ForceScalar: true})
		if err != nil {
			t.Fatal(err)
		}
		want := swar.Pair{Score: r.BestScore, I: r.BestI, J: r.BestJ}
		var al swar.Aligner
		if got, ok := al.StripedScan8(s, tt, sc); ok && got != want {
			t.Fatalf("StripedScan8 (|s|=%d |t|=%d %+v): %+v, want %+v", len(s), len(tt), sc, got, want)
		}
		if got, ok := al.StripedScan16(s, tt, sc); ok && got != want {
			t.Fatalf("StripedScan16 (|s|=%d |t|=%d %+v): %+v, want %+v", len(s), len(tt), sc, got, want)
		}
		if r, err = align.Scan(s, tt, sc, align.ScanOptions{}); err != nil {
			t.Fatal(err)
		}
		if got := (swar.Pair{Score: r.BestScore, I: r.BestI, J: r.BestJ}); got != want {
			t.Fatalf("align.Scan (|s|=%d |t|=%d %+v): %+v, want %+v", len(s), len(tt), sc, got, want)
		}
	})
}
