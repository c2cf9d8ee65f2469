package swar_test

import (
	"strings"
	"testing"

	"genomedsm/internal/align"
	"genomedsm/internal/bio"
	"genomedsm/internal/swar"
)

// rawDNA is the fuzzSeq input that maps back to the bases of s: A, C, G,
// T and N as bytes 0…4.
func rawDNA(s string) []byte {
	raw := make([]byte, len(s))
	for i := range s {
		raw[i] = byte(strings.IndexByte("ACGTN", s[i]))
	}
	return raw
}

// laneSchemes are FuzzBeginLanesVsBegin's scorings: the default, the
// floor steps of match 2 and 5, and two at the int16 admission edge —
// match 2047 puts Match·min(endI, endJ) at exactly swar.LaneMax for a
// 16-row prefix, and match 300 with a gap below the int16 range, which
// the lanes clamp, crosses it at 110 rows.
var laneSchemes = []bio.Scoring{
	bio.DefaultScoring(),
	{Match: 1, Mismatch: -1, Gap: -1},
	{Match: 2, Mismatch: -3, Gap: -5},
	{Match: 5, Mismatch: -4, Gap: -3},
	{Match: 2047, Mismatch: -2047, Gap: -4094},
	{Match: 300, Mismatch: -250, Gap: -40000},
}

// FuzzBeginLanesVsBegin pins align.Retriever.BeginLanes, the lane passes
// of the begin sweep, to align.Retriever.Begin lane by lane: for every
// item, the same begin cell and ok, on both routes — the AVX2 lane
// kernel and a host without it, where every item runs Begin. The items
// are every endpoint a scalar Scan reports from minScore up (cells that
// are not the first to hold their score give ok = false) on three pairs
// whose prefixes differ widely — (s, t), (t, s) and (s's first half, t),
// t with s planted whole in it when shape is odd, so alignments start at
// the reversed sweep's last row — plus two items Begin refuses, cut into
// BeginLanes calls of 1…16 items (partly filled passes). On the AVX2
// route exactly the items whose Match·min(EndI, EndJ) and K are at most
// swar.LaneMax run in lanes; on the portable route none does.
func FuzzBeginLanesVsBegin(f *testing.F) {
	seed := func(s, t string, scheme, minScore, shape uint8) {
		f.Add(rawDNA(s), rawDNA(t), scheme, minScore, shape)
	}
	// The paper's §6 example.
	seed("TCTCGACGGATTAGTATATATATA", "ATATGATCGGAATAGCTCT", 0, 1, 0)
	// Theorem 6.2's zero elimination: a diagonal killed by mismatches, a
	// west chain (a gap in s) and a north chain (a gap in t) dying, and a
	// path that falls to zero and climbs back, whose end cell no anchored
	// path reaches (ok = false).
	seed("ACGTACGGTTCA", "ACGAACTGTACA", 0, 0, 2)
	seed("ACGTACGTACGTAC", "ACGTACGTTTTACGTAC", 1, 0, 4)
	seed("ACGTACGTTTTACGTAC", "ACGTACGTACGTAC", 1, 0, 6)
	seed("AAAAACCCCCAAAAA", "AAAAAGGGGGAAAAA", 0, 0, 8)
	// Ties on p+q: repeats reach k in several cells of one antidiagonal.
	seed("ACACACACACACAC", "CACACAACACAC", 2, 1, 10)
	seed("GGGGTTTTGGGGTTTTGGGG", "GGGGTTTGGGGTTTGGGG", 3, 2, 13)
	// N in both sequences, and runs of it.
	seed("ACGNNACGTANCGTAC", "ACGTNACGTNNCGTACN", 0, 0, 30)
	seed("NNNNACGTACGTNNNN", "ACGTNNNNACGT", 1, 0, 31)
	// Lanes of very different end cells, in full and partly filled
	// passes, the floor reaching k with s planted whole in t.
	seed("TAGCATGCAATGCCGATTACGATCGATCGGATCCATG", "CCGTAGCATGCTTGCCGATTGG", 2, 3, 1)
	seed("TAGCATGCAATGCCGATTACGATCGATCGGATCCATG", "CCGTAGCATGCTTGCCGATTGG", 3, 0, 15)
	seed("TAGCATGCAATGCCGATTACGATCGATCGGATCCATG", "CCGTAGCATGCTTGCCGATTGG", 0, 1, 31)
	// The int16 admission edge: Match·min(EndI, EndJ) at LaneMax and one
	// row past it, and the clamped gap.
	seed("ACGTACGTACGTACGTACGTACGTACGT", "TTACGTACGTACGTACGTACGTACGTACGTGG", 4, 0, 1)
	seed("ACGTACGTACGTACGTACGTACGTACGT", "TTACGTACGTACGTACGTACGTACGTACGTGG", 4, 0, 8)
	seed(strings.Repeat("ACGTTGCA", 17), strings.Repeat("ACGTTGCA", 16)+"GATTACA", 5, 0, 1)
	seed(strings.Repeat("ACGTTGCA", 17), strings.Repeat("ACGTAGCA", 16), 5, 7, 4)

	var lanes, oracle align.Retriever // reused across inputs, as a realign worker does
	f.Fuzz(func(t *testing.T, rawS, rawT []byte, scheme, minScore, shape uint8) {
		s, tt := fuzzSeq(rawS, 160), fuzzSeq(rawT, 160)
		if len(s) == 0 || len(tt) == 0 {
			return
		}
		if shape%2 == 1 {
			tt = append(append(tt[:len(tt)/2:len(tt)/2], s...), tt[len(tt)/2:]...)
		}
		sc := laneSchemes[int(scheme)%len(laneSchemes)]
		var items []align.BeginItem
		for _, pr := range [][2]bio.Sequence{{s, tt}, {tt, s}, {s[:(len(s)+1)/2], tt}} {
			r, err := align.Scan(pr[0], pr[1], sc, align.ScanOptions{ForceScalar: true, EndpointMinScore: 1 + int(minScore%8)})
			if err != nil {
				t.Fatal(err)
			}
			for _, ep := range r.Endpoints {
				items = append(items, align.BeginItem{S: pr[0], T: pr[1], EndI: ep.I, EndJ: ep.J, K: ep.Score})
			}
		}
		items = append(items,
			align.BeginItem{S: s, T: tt, EndI: 0, EndJ: 1, K: 1},
			align.BeginItem{S: s, T: tt, EndI: 1, EndJ: 1, K: 0})
		chunk := int(shape/2)%swar.BeginLanes + 1
		for _, route := range swar.Routes() {
			restore := swar.UseRoute(route)
			laned, want := 0, 0
			for i := 0; i < len(items); i += chunk {
				laned += lanes.BeginLanes(sc, items[i:min(i+chunk, len(items))])
			}
			for i, it := range items {
				sb, tb, _, ok := oracle.Begin(it.S, it.T, sc, it.EndI, it.EndJ, it.K)
				if it.SBegin != sb || it.TBegin != tb || it.OK != ok {
					t.Fatalf("%s: item %d (end (%d,%d) of |s| %d, |t| %d, k %d): lanes (%d,%d) ok=%v, Begin (%d,%d) ok=%v",
						route, i, it.EndI, it.EndJ, len(it.S), len(it.T), it.K, it.SBegin, it.TBegin, it.OK, sb, tb, ok)
				}
				if it.EndI >= 1 && it.K >= 1 && sc.Match*min(it.EndI, it.EndJ) <= swar.LaneMax && it.K <= swar.LaneMax {
					want++
				}
			}
			restore()
			if route == "portable" {
				want = 0
			}
			if laned != want {
				t.Fatalf("%s: %d of %d items ran in lanes, want %d", route, laned, len(items), want)
			}
		}
	})
}

// TestBeginRowRefusesShortRows: BeginRow checks the bounds the assembly
// leaves out — a window outside 1 ≤ lo ≤ mid ≤ qmax, or rows and codes
// shorter than its columns — before it reads or writes a word.
func TestBeginRowRefusesShortRows(t *testing.T) {
	if !swar.HasBeginRow() {
		t.Skip("no begin-row lane kernel on this host")
	}
	var r swar.LaneRow
	r.SetScoring(bio.DefaultScoring())
	row := func(cols int) []uint64 { return make([]uint64, 4*cols) }
	cases := map[string]func(){
		"lo0":        func() { swar.BeginRow(row(4), row(5), row(4), &r, 0, 1, 3) },
		"mid<lo":     func() { swar.BeginRow(row(4), row(5), row(4), &r, 2, 1, 3) },
		"qmax<mid":   func() { swar.BeginRow(row(4), row(5), row(4), &r, 1, 3, 2) },
		"prev":       func() { swar.BeginRow(row(3), row(5), row(4), &r, 1, 3, 3) },
		"cur":        func() { swar.BeginRow(row(4), row(4), row(4), &r, 1, 3, 3) },
		"codes":      func() { swar.BeginRow(row(4), row(5), row(3), &r, 1, 3, 3) },
		"prev words": func() { swar.BeginRow(row(4)[:15], row(5), row(4), &r, 1, 3, 3) },
	}
	for name, call := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			call()
		})
	}
	// The smallest window in bounds runs.
	swar.BeginRow(row(2), row(3), row(2), &r, 1, 1, 1)
}

// TestLaneCodes: a lane compare is bio.Substitution's rule — equal known
// bases match, and a query 'N', a target 'N' and a dead column match
// nothing — and every target code caps no admitted cell.
func TestLaneCodes(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			match := swar.LaneQuery(byte(a)) == swar.LaneTarget(byte(b))
			if want := bio.Matches(byte(a), byte(b)); match != want {
				t.Fatalf("query %q target %q: lane codes match=%v, bio.Matches %v", a, b, match, want)
			}
		}
		if swar.LaneQuery(byte(a)) == swar.LaneDead {
			t.Fatalf("query %q has the dead column's code", a)
		}
		if c := swar.LaneTarget(byte(a)); c < swar.LaneMax || c >= swar.LaneStopped {
			t.Fatalf("target %q code %#x outside [LaneMax, LaneStopped)", a, c)
		}
	}
}
