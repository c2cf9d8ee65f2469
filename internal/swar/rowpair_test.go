package swar

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"genomedsm/internal/bio"
)

// rowOctKernel is the signature both eight-row kernels share.
type rowOctKernel func(row, codes []uint64, c *octCodes, gapV, best, sat uint64) (uint64, uint64)

// rowPairWidth is one lane width: the eight-row kernel under test, the
// portable eight-row pass it must agree with, the lane geometry, the
// interleave of its code words and the oracle's profile builder.
type rowPairWidth struct {
	name             string
	kernel, portable rowOctKernel
	w                width
	interleave       func(dst []uint64, targets []bio.Sequence) []uint64
	profile          func(targets []bio.Sequence, sc bio.Scoring) *PackedProfile
}

var rowPairWidths = []rowPairWidth{
	{"int8", rowOct8, rowOct8Go, int8Lanes, bio.InterleaveWords8, NewPackedProfile8},
	{"int16", rowOct16, rowOct16Go, int16Lanes, bio.InterleaveWords16, NewPackedProfile16},
}

// rowPairInputs draws the operands of one differential case. Lanes named
// in dirty hold arbitrary values in the row words — anything a flagged
// lane may carry, and more — and every other lane clean values (≤ cap).
// best is ≤ cap in every lane: it is the second operand of the portable
// max, which stays inside its lane only for such values, and the
// portable kernel never returns a larger one. mode shapes the values
// and the scoring: 0 uniform (Match, |Mismatch| anywhere in 0…cap), 1
// small (long runs of cells that neither clamp nor saturate), 2 every
// magnitude and clean row value at the cap (each match saturates), 3
// DNA-like (Match 1, Mismatch −3).
type rowPairInputs struct {
	r     *rand.Rand
	w     rowPairWidth
	dirty uint64 // all-ones in every dirty lane
	mode  int
}

func (in *rowPairInputs) capVal() uint64 { return uint64(in.w.w.cap) }

// value returns one clean lane value under the mode.
func (in *rowPairInputs) value() uint64 {
	c := in.capVal()
	switch in.mode {
	case 1:
		return uint64(in.r.Intn(5))
	case 2:
		return c
	default:
		return uint64(in.r.Int63n(int64(c) + 1))
	}
}

// word returns a row word (dirty lanes arbitrary) or, with dirty 0, a
// best word.
func (in *rowPairInputs) word(dirty uint64) uint64 {
	var w uint64
	for l := 0; l < in.w.w.lanes; l++ {
		v := in.value()
		if dirty>>(uint(l)*in.w.w.shift)&1 != 0 {
			v = uint64(in.r.Int63n(int64(in.capVal())*2 + 2))
		}
		w |= v << (uint(l) * in.w.w.shift)
	}
	return w
}

// scoring returns the case's scoring: Match and |Mismatch| under the
// mode, gap capped at the lane cap.
func (in *rowPairInputs) scoring(gap uint64) bio.Scoring {
	sc := bio.Scoring{Match: 1, Mismatch: -3, Gap: -int(min(gap, in.capVal()))}
	switch in.mode {
	case 0, 1:
		sc.Match, sc.Mismatch = int(in.value()), -int(in.value())
	case 2:
		sc.Match, sc.Mismatch = in.w.w.cap, -in.w.w.cap
	}
	return sc
}

// targets returns a lane group whose longest target is words bases: the
// others uneven, some empty, a few lanes absent (PadCode), and 'N'
// residues among the bases — a target 'N' matches no query residue.
func (in *rowPairInputs) targets(words int) []bio.Sequence {
	t := make([]bio.Sequence, 1+in.r.Intn(in.w.w.lanes))
	for l := range t {
		n := words
		if l > 0 {
			n = in.r.Intn(words + 1)
		}
		t[l] = in.bases(n, "ACGTN")
	}
	return t
}

// bases draws n residues from letters, 'A' and 'C' more often under mode
// 1 and 3 (longer matching runs).
func (in *rowPairInputs) bases(n int, letters string) bio.Sequence {
	s := make(bio.Sequence, n)
	for i := range s {
		s[i] = letters[in.r.Intn(len(letters))]
		if in.mode%2 == 1 && in.r.Intn(2) == 0 {
			s[i] = "AC"[in.r.Intn(2)]
		}
	}
	return s
}

// query returns the eight query rows of a pass, the last phantom of them
// 'N' rows, as the scan pads a query's last pass.
func (in *rowPairInputs) query(phantom int) *[8]byte {
	var q [8]byte
	copy(q[:], in.bases(8, "ACGTN"))
	for k := 8 - phantom; k < 8; k++ {
		q[k] = 'N'
	}
	return &q
}

// octOf returns the octCodes of the eight query rows q at width w under
// sc, as scanPacked fills them.
func octOf(q *[8]byte, w width, sc bio.Scoring) *octCodes {
	o := newOctCodes(w, sc)
	o.setRows(q[:], 0, len(q), w)
	return &o
}

// newRowPairInputs returns the generator of one differential case and
// the guard bits of its lanes.
func newRowPairInputs(w rowPairWidth, seed int64, dirty uint8, mode int) (in *rowPairInputs, guards uint64) {
	in = &rowPairInputs{r: rand.New(rand.NewSource(seed)), w: w, mode: mode}
	laneBits := uint64(1)<<w.w.shift - 1
	for l := 0; l < w.w.lanes; l++ {
		guards |= (laneBits + 1) >> 1 << (uint(l) * w.w.shift)
		if dirty>>uint(l)&1 != 0 {
			in.dirty |= laneBits << (uint(l) * w.w.shift)
		}
	}
	return in, guards
}

// rowCase is the state of one differential case over successive passes:
// the row and its words of code, best and sat.
type rowCase struct {
	row, codes []uint64
	targets    []bio.Sequence
	best, sat  uint64
}

// newRowCase draws a row of n words, clean and dirty lanes side by side,
// and the code words of a group whose longest target is n+extra bases:
// a pass reads only the row's n of them, as a narrowed pass (pass.lens)
// does.
func (in *rowPairInputs) newRowCase(n, extra int, guards uint64) *rowCase {
	c := &rowCase{row: make([]uint64, n), targets: in.targets(n + extra)}
	c.codes = in.w.interleave(nil, c.targets)
	for j := range c.row {
		c.row[j] = in.word(in.dirty)
	}
	c.best = in.word(0)
	c.sat = in.r.Uint64() &^ guards
	return c
}

func (c *rowCase) clone() *rowCase {
	d := *c
	d.row = slices.Clone(c.row)
	return &d
}

// cleanLanes returns all-ones in every lane that is neither dirty nor
// flagged in sat, after failing unless got and want flag the same lanes.
func cleanLanes(t *testing.T, w width, dirty, guards, gotSat, wantSat uint64, where string) uint64 {
	t.Helper()
	laneBits := uint64(1)<<w.shift - 1
	var clean uint64
	for l := 0; l < w.lanes; l++ {
		lane := laneBits << (uint(l) * w.shift)
		if lane&dirty != 0 {
			continue
		}
		guard := lane & guards
		if gotSat&guard != wantSat&guard {
			t.Fatalf("%s: lane %d guard bit %v, want %v", where, l, gotSat&guard != 0, wantSat&guard != 0)
		}
		if wantSat&guard == 0 {
			clean |= lane
		}
	}
	return clean
}

// sameLanes fails unless got and want agree in every lane of mask: the
// row, best and sat.
func sameLanes(t *testing.T, got, want *rowCase, mask uint64, where string) {
	t.Helper()
	if (got.best^want.best)&mask != 0 || (got.sat^want.sat)&mask != 0 {
		t.Fatalf("%s: best %#x sat %#x, want %#x %#x (lanes %#x)", where, got.best, got.sat, want.best, want.sat, mask)
	}
	for j := range want.row {
		if (got.row[j]^want.row[j])&mask != 0 {
			t.Fatalf("%s: word %d = %#x, want %#x (lanes %#x)", where, j, got.row[j], want.row[j], mask)
		}
	}
}

// checkRowOct runs the eight-row kernel and the portable pass — four
// portable two-row passes — side by side for calls successive passes
// over one row of n words, the last pass with phantom trailing 'N' rows
// as the scan pads a query, and fails on the first difference in what
// the ladder reads: every clean lane's guard bit of sat, and in every
// clean lane that has not set it the whole lane of the row, of best and
// of sat. The code words run one word past the row for odd seeds.
func checkRowOct(t *testing.T, w rowPairWidth, seed int64, n, calls int, gap uint64, dirty uint8, mode, phantom int) {
	t.Helper()
	in, guards := newRowPairInputs(w, seed, dirty, mode)
	sc := in.scoring(gap)
	gapV := w.w.broadcast(-sc.Gap)
	got := in.newRowCase(n, int(seed&1), guards)
	want := got.clone()
	for call := 0; call < calls; call++ {
		ph := 0
		if call == calls-1 {
			ph = phantom
		}
		oct := octOf(in.query(ph), w.w, sc)
		got.best, got.sat = w.kernel(got.row, got.codes, oct, gapV, got.best, got.sat)
		want.best, want.sat = w.portable(want.row, want.codes, oct, gapV, want.best, want.sat)
		where := fmt.Sprintf("%s seed %d n %d call %d", w.name, seed, n, call)
		sameLanes(t, got, want, cleanLanes(t, w.w, in.dirty, guards, got.sat, want.sat, where), where)
	}
}

// FuzzRowQuadVsPortable pins the eight-row kernels the scan runs — on an
// AVX2 host the assembly ones — to the portable pass, four portable
// two-row passes, at both lane widths: rows of 1 to 300 words (under 8
// the skew's prologue and epilogue would overlap, and the kernels fall
// through to the portable pass), one to eight successive passes over one
// row buffer, zero to seven phantom 'N' rows ending the last, clean and
// dirty lanes side by side, code words of uneven lanes with 'N' and pad,
// and scorings and gaps up to the lane cap. The seeds, which plain `go
// test` runs, sweep every mode and phantom count over rows of one to 23
// words and up to 300. (The name dates from the four-row kernel; its
// corpus entries still apply.)
func FuzzRowQuadVsPortable(f *testing.F) {
	for _, n := range []uint16{1, 4, 5} {
		// Every magnitude at the lane cap, gap 0.
		f.Add(int64(n), n-1, uint8(2), uint16(0), uint8(0), uint8(2), uint8(0))
	}
	for seed := 0; seed < 64; seed++ {
		n := []uint16{1, 2, 3, 4, 5, 6, 7, 8, 65, 300}[seed%10]
		f.Add(int64(seed), n-1, uint8(seed), uint16(seed%12), uint8(seed*37), uint8(seed/4), uint8(seed/16))
	}
	// The prologue and epilogue of short rows and the kernel's four-step
	// body with every remainder, under four to seven phantom rows.
	for seed := 64; seed < 128; seed++ {
		n := []uint16{8, 9, 10, 11, 12, 13, 14, 15, 16, 23}[seed%10]
		f.Add(int64(seed), n-1, uint8(seed), uint16(seed%12), uint8(seed*37), uint8(seed%4), uint8(4+seed%4))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, calls uint8, gap uint16, dirty, mode, phantom uint8) {
		for _, w := range rowPairWidths {
			checkRowOct(t, w, seed, 1+int(n)%300, 1+int(calls)%8, uint64(gap), dirty, int(mode)%4, int(phantom)%8)
		}
	})
}

// pairLanes is the portable two-row pass worked lane by lane in int
// arithmetic — the recurrence itself, with no packing — over clean lane
// values: it advances row (row i-1 on entry) by the two rows the profile
// rows plus[r], minus[r] score, and returns the new best and whether any
// diagonal term exceeded cap, the one way a lane sets its guard bit.
func pairLanes(row []int, plus, minus [2][]int, gap, best, cap int) (int, bool) {
	flagged := false
	for r := range plus {
		d, west := 0, 0 // the zero border column
		for j, north := range row {
			v := max(d-minus[r][j], 0) + plus[r][j]
			flagged = flagged || v > cap
			v = max(v, north-gap, west-gap, 0)
			d, row[j], west = north, v, v
			best = max(best, v)
		}
	}
	return best, flagged
}

// FuzzRowPairVsPortable pins the code-word passes — the portable
// rowPair8Go/rowPair16Go and, on an AVX2 host, the assembly — to the
// profile-word passes they replaced, over the packed profile built from
// the target bytes (profile_test.go), at both lane widths: rows of 1 to
// 300 words, one to eight successive passes, query 'N' rows and zero to
// seven phantom rows, target 'N' residues and PadCode lanes, dirty
// lanes, and scorings with Match and |Mismatch| at the cap and gaps of 0.
// The portable passes must return the oracle's words in every lane —
// the whole row, best and sat — and the assembly the same in every
// clean lane and the same guard bits. And every clean lane must follow
// the recurrence worked lane by lane (pairLanes). The seeds at 8…15
// words run every epilogue step of the assembly's last qwords.
func FuzzRowPairVsPortable(f *testing.F) {
	for _, n := range []uint16{1, 2} {
		f.Add(int64(n), n-1, uint8(2), uint16(0), uint8(0), uint8(2))
	}
	for seed := 0; seed < 48; seed++ {
		n := []uint16{1, 2, 3, 8, 65, 300}[seed%6]
		f.Add(int64(seed), n-1, uint8(seed), uint16(seed%12), uint8(seed*37), uint8(seed/6))
	}
	for seed := 48; seed < 80; seed++ {
		n := uint16(8 + seed%8)
		f.Add(int64(seed), n-1, uint8(seed/8), uint16(seed%3), uint8(seed*37), uint8(seed/2))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, calls uint8, gap uint16, dirty, mode uint8) {
		for _, w := range rowPairWidths {
			checkRowPair(t, w, seed, 1+int(n)%300, 1+int(calls)%8, uint64(gap), dirty, int(mode)%4)
		}
	})
}

// checkRowPair is FuzzRowPairVsPortable's check of one width, on each of
// the host's routes.
func checkRowPair(t *testing.T, w rowPairWidth, seed int64, n, calls int, gap uint64, dirty uint8, mode int) {
	t.Helper()
	routes := []bool{false}
	if detectedAVX2 {
		routes = append(routes, true)
	}
	for _, avx2 := range routes {
		func() {
			defer func(saved bool) { hasAVX2 = saved }(hasAVX2)
			hasAVX2 = avx2
			checkRowPairOn(t, w, seed, n, calls, gap, dirty, mode, avx2)
		}()
	}
}

// checkRowPairOn is checkRowPair on one route.
func checkRowPairOn(t *testing.T, w rowPairWidth, seed int64, n, calls int, gap uint64, dirty uint8, mode int, avx2 bool) {
	t.Helper()
	in, guards := newRowPairInputs(w, seed, dirty, mode)
	sc := in.scoring(gap)
	gapV := w.w.broadcast(-sc.Gap)
	got := in.newRowCase(n, int(seed&1), guards)
	want := got.clone()
	prof := w.profile(got.targets, sc)
	lane := func(word uint64, l int) int { return w.w.lane(word, l) }
	lanes := func(words []uint64, l int) []int {
		out := make([]int, n)
		for j := range out {
			out[j] = lane(words[j], l)
		}
		return out
	}
	type ref struct {
		row     []int
		best    int
		flagged bool
	}
	refs := make([]ref, w.w.lanes)
	for l := range refs {
		refs[l] = ref{row: lanes(got.row, l), best: lane(got.best, l)}
	}
	phantom := int(uint64(seed)>>1) % 8
	for call := 0; call < calls; call++ {
		ph := 0
		if call == calls-1 {
			ph = phantom
		}
		q := in.query(ph)
		got.best, got.sat = w.kernel(got.row, got.codes, octOf(q, w.w, sc), gapV, got.best, got.sat)
		want.best, want.sat = refRowOct(want.row, prof, q, gapV, want.best, want.sat)
		where := fmt.Sprintf("%s seed %d n %d call %d avx2 %v", w.name, seed, n, call, avx2)
		mask := ^uint64(0)
		if avx2 {
			mask = cleanLanes(t, w.w, in.dirty, guards, got.sat, want.sat, where)
		}
		sameLanes(t, got, want, mask, where)
		for l := range refs {
			r := &refs[l]
			if in.dirty>>(uint(l)*w.w.shift)&1 != 0 || r.flagged {
				continue
			}
			for k := 0; k < 8 && !r.flagged; k += 2 {
				r.best, r.flagged = pairLanes(r.row,
					[2][]int{lanes(prof.PlusRow(q[k]), l), lanes(prof.PlusRow(q[k+1]), l)},
					[2][]int{lanes(prof.MinusRow(q[k]), l), lanes(prof.MinusRow(q[k+1]), l)},
					-sc.Gap, r.best, w.w.cap)
			}
			if g := got.sat>>(uint(l+1)*w.w.shift-1)&1 != 0; g != r.flagged {
				t.Fatalf("%s: lane %d guard bit %v, recurrence %v", where, l, g, r.flagged)
			}
			if r.flagged {
				continue
			}
			if g := lane(got.best, l); g != r.best {
				t.Fatalf("%s: lane %d best %d, recurrence %d", where, l, g, r.best)
			}
			for j, v := range r.row {
				if g := lane(got.row[j], l); g != v {
					t.Fatalf("%s: lane %d word %d = %d, recurrence %d", where, l, j, g, v)
				}
			}
		}
	}
}

// TestRowPairShortProfilePanics checks that the eight-row kernels refuse
// code words shorter than the row buffer, as the portable kernels'
// bounds checks do: the AVX2 loop checks nothing itself, so its Go entry
// must. argK runs a row of 8+K words — from the prologue alone to every
// remainder of the four-step body — whose code words are one word short
// but sit in a longer array, as a pack layout's group sits before the
// next group's words: a check of the capacity rather than the length
// would let the kernel read the next group's codes. stride checks the
// converse on the AVX2 route: words past the row, which a narrowed pass
// (pass.lens) leaves unread, change nothing. (The name dates from the
// packed profile, whose sixteen rows per pass were the arguments and
// whose minus rows sat a stride after the plus rows.)
func TestRowPairShortProfilePanics(t *testing.T) {
	sc := bio.DefaultScoring()
	for _, w := range rowPairWidths {
		for name, k := range map[string]rowOctKernel{"kernel": w.kernel, "portable": w.portable} {
			for short := 0; short < 16; short++ {
				t.Run(fmt.Sprintf("%s/%s/arg%d", w.name, name, short), func(t *testing.T) {
					n := 8 + short
					backing := make([]uint64, 2*n)
					codes := backing[: n-1 : 2*n]
					defer func() {
						if recover() == nil {
							t.Fatalf("%d code words for a %d-word row did not panic", n-1, n)
						}
					}()
					k(make([]uint64, n), codes, octOf(&[8]byte{'A', 'C', 'G', 'T', 'A', 'C', 'G', 'T'}, w.w, sc), 0, 0, 0)
				})
			}
		}
		if !hasAVX2 {
			continue
		}
		t.Run(w.name+"/kernel/stride", func(t *testing.T) {
			const n = 13
			in, _ := newRowPairInputs(w, 5, 0, 3)
			c := in.newRowCase(n, 0, 0)
			// Eight more words, code 0 ('A') in every lane: matches, if read.
			long := append(slices.Clone(c.codes), make([]uint64, 8)...)
			oct := octOf(&[8]byte{'A', 'A', 'A', 'A', 'A', 'A', 'A', 'A'}, w.w, sc)
			want := c.clone()
			want.best, want.sat = w.portable(want.row, want.codes, oct, w.w.broadcast(2), want.best, want.sat)
			c.best, c.sat = w.kernel(c.row, long, oct, w.w.broadcast(2), c.best, c.sat)
			sameLanes(t, c, want, ^uint64(0), "words past the row")
		})
	}
}

// TestHasAVX2MatchesCPUInfo holds the start-up CPUID detection that
// routes the eight-row passes to the operating system's own report: on
// linux/amd64, the avx2 flag of /proc/cpuinfo, which Linux shows only
// when the CPU has AVX2 and the kernel saves the YMM registers. It logs
// the route, so a CI log says which kernel the build host ran.
// Elsewhere it is skipped.
func TestHasAVX2MatchesCPUInfo(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skipf("no /proc/cpuinfo flags to compare on %s/%s", runtime.GOOS, runtime.GOARCH)
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Fatal(err)
	}
	var flags []string
	for _, line := range strings.Split(string(info), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = strings.Fields(list)
			break
		}
	}
	if flags == nil {
		t.Fatal("/proc/cpuinfo has no flags line")
	}
	if want := slices.Contains(flags, "avx2"); detectedAVX2 != want {
		t.Fatalf("CPUID says AVX2 %v, /proc/cpuinfo flags say %v", detectedAVX2, want)
	}
	t.Logf("hasAVX2 = %v", detectedAVX2)
}

// BenchmarkRowOct8VsPortable times rowOct8 and the portable rowOct8Go —
// four rowPair8Go passes — over one 8-lane group, a 1000-base query
// against eight 1000-base targets, the two arms alternated in each
// iteration and the first of them switched every iteration, as the root
// SearchShardedPruned does. It reports the time ratio portable/avx2 — a
// same-run reading, so the host's speed that hour cancels — and the
// kernel's cells/s. ci.sh gates the median ratio of five runs; on a host
// without AVX2 the two arms are one kernel and the benchmark skips.
func BenchmarkRowOct8VsPortable(b *testing.B) {
	if !hasAVX2 {
		b.Skip("no AVX2: rowOct8 is the portable pass")
	}
	g := bio.NewGenerator(39)
	q := g.Random(1000)
	targets := make([]bio.Sequence, bio.PackedLanes8)
	for i := range targets {
		targets[i] = g.Random(1000)
	}
	sc := bio.DefaultScoring()
	codes := bio.InterleaveWords8(nil, targets)
	gapV := int8Lanes.broadcast(-sc.Gap)
	row := make([]uint64, len(codes))
	octs := make([]*octCodes, 0, len(q)/8)
	for i := 0; i+7 < len(q); i += 8 {
		octs = append(octs, octOf((*[8]byte)(q[i:i+8]), int8Lanes, sc))
	}
	scan := func(k rowOctKernel) uint64 {
		clear(row)
		var best, sat uint64
		for _, oct := range octs {
			best, sat = k(row, codes, oct, gapV, best, sat)
		}
		return best | sat&hi8
	}
	if scan(rowOct8) != scan(rowOct8Go) {
		b.Fatal("rowOct8 and rowOct8Go disagree on the benchmark group")
	}
	timed := func(k rowOctKernel) time.Duration {
		start := time.Now()
		scan(k)
		return time.Since(start)
	}
	var fast, portable time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			fast += timed(rowOct8)
			portable += timed(rowOct8Go)
		} else {
			portable += timed(rowOct8Go)
			fast += timed(rowOct8)
		}
	}
	b.ReportMetric(float64(portable)/float64(fast), "portable/avx2")
	b.ReportMetric(float64(b.N)*float64(len(q))*float64(len(row)*bio.PackedLanes8)/fast.Seconds(), "cells/s")
}
