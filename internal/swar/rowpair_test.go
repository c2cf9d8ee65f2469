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
type rowOctKernel func(row []uint64, p *octProfile, gapV, best, sat uint64) (uint64, uint64)

// rowPairKernel is the signature both portable two-row kernels share.
type rowPairKernel func(row, plusA, minusA, plusB, minusB []uint64, gapV, best, sat uint64) (uint64, uint64)

// rowPairWidth is one lane width: the eight-row kernel under test, the
// portable eight-row pass it must agree with, the portable two-row
// kernel that pass is made of, and the lane geometry.
type rowPairWidth struct {
	name             string
	kernel, portable rowOctKernel
	pair             rowPairKernel
	shift            uint // bits per lane
}

var rowPairWidths = []rowPairWidth{
	{"int8", rowOct8, rowOct8Go, rowPair8Go, 8},
	{"int16", rowOct16, rowOct16Go, rowPair16Go, 16},
}

// rowPairInputs draws the words of one differential case. Lanes named
// in dirty hold arbitrary values in the row words — anything a flagged
// lane may carry, and more — and every other lane clean values (≤ cap).
// best is ≤ cap in every lane: it is the second operand of the portable
// max, which stays inside its lane only for such values, and the
// portable kernel never returns a larger one. Profile lanes and the gap
// are ≤ cap, as bio.PackedProfile and scan guarantee. mode shapes the values: 0 uniform, 1 small (long
// runs of cells that neither clamp nor saturate), 2 every lane at the
// cap (each diagonal saturates), 3 DNA-like (per lane either a match
// reward or a mismatch penalty).
type rowPairInputs struct {
	r     *rand.Rand
	w     rowPairWidth
	dirty uint64 // all-ones in every dirty lane
	mode  int
}

func (in *rowPairInputs) lanes() int     { return 64 / int(in.w.shift) }
func (in *rowPairInputs) capVal() uint64 { return 1<<(in.w.shift-1) - 1 }

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
	for l := 0; l < in.lanes(); l++ {
		v := in.value()
		if dirty>>(uint(l)*in.w.shift)&1 != 0 {
			v = uint64(in.r.Int63n(int64(in.capVal())*2 + 2))
		}
		w |= v << (uint(l) * in.w.shift)
	}
	return w
}

// oct returns the profile of an eight-row pass over n words whose last
// phantom rows are all-mismatch 'N' rows: no match reward in any lane,
// and a mismatch penalty drawn as any other profile word. Each minus row
// sits stride ≥ n words after its plus row, as in a bio profile whose
// rows a narrowed pass (pass.lens) reads only n words of.
func (in *rowPairInputs) oct(n, stride, phantom int) *octProfile {
	p := new(octProfile)
	for k := range p.plus {
		plus, minus := in.profile(n)
		rows := make([]uint64, stride+n)
		p.plus[k], p.minus[k] = rows[:n:n], rows[stride:]
		copy(p.plus[k], plus)
		copy(p.minus[k], minus)
		if k >= len(p.plus)-phantom {
			clear(p.plus[k])
		}
	}
	return p
}

// profile returns a plus row and a minus row of n words.
func (in *rowPairInputs) profile(n int) (plus, minus []uint64) {
	plus, minus = make([]uint64, n), make([]uint64, n)
	for j := range plus {
		for l := 0; l < in.lanes(); l++ {
			off := uint(l) * in.w.shift
			switch in.mode {
			case 2:
				plus[j] |= in.capVal() << off
			case 3:
				if in.r.Intn(4) == 0 {
					plus[j] |= 1 << off
				} else {
					minus[j] |= 3 << off
				}
			default:
				plus[j] |= in.value() << off
				minus[j] |= in.value() << off
			}
		}
	}
	return plus, minus
}

// newRowPairInputs returns the generator of one differential case and
// the guard bits of its lanes.
func newRowPairInputs(w rowPairWidth, seed int64, dirty uint8, mode int) (in *rowPairInputs, guards uint64) {
	in = &rowPairInputs{r: rand.New(rand.NewSource(seed)), w: w, mode: mode}
	laneBits := uint64(1)<<w.shift - 1
	for l := 0; l < in.lanes(); l++ {
		guards |= (laneBits + 1) >> 1 << (uint(l) * w.shift)
		if dirty>>uint(l)&1 != 0 {
			in.dirty |= laneBits << (uint(l) * w.shift)
		}
	}
	return in, guards
}

// broadcast returns v in every lane, after capping it at the lane cap.
func (in *rowPairInputs) broadcast(v uint64) uint64 {
	v = min(v, in.capVal())
	var word uint64
	for l := 0; l < in.lanes(); l++ {
		word |= v << (uint(l) * in.w.shift)
	}
	return word
}

// checkRowOct runs the eight-row kernel and the portable pass — four
// portable two-row passes — side by side for calls successive passes
// over one row of n words, the last pass with phantom trailing 'N' rows
// as the scan pads a query, and fails on the first difference in what
// the ladder reads: every clean lane's guard bit of sat, and in every
// clean lane that has not set it the whole lane of the row, of best and
// of sat. Profile rows sit n or n+1 words apart, by the seed's parity.
func checkRowOct(t *testing.T, w rowPairWidth, seed int64, n, calls int, gap uint64, dirty uint8, mode, phantom int) {
	t.Helper()
	in, guards := newRowPairInputs(w, seed, dirty, mode)
	laneBits := uint64(1)<<w.shift - 1
	gapV := in.broadcast(gap)
	row := make([]uint64, n)
	for j := range row {
		row[j] = in.word(in.dirty)
	}
	want := append([]uint64(nil), row...)
	best := in.word(0)
	wantBest := best
	sat := in.r.Uint64() &^ guards
	wantSat := sat
	for call := 0; call < calls; call++ {
		ph := 0
		if call == calls-1 {
			ph = phantom
		}
		p := in.oct(n, n+int(seed&1), ph)
		best, sat = w.kernel(row, p, gapV, best, sat)
		wantBest, wantSat = w.portable(want, p, gapV, wantBest, wantSat)
		var clean uint64 // all-ones in every clean lane not yet flagged
		for l := 0; l < in.lanes(); l++ {
			off := uint(l) * w.shift
			lane := laneBits << off
			if lane&in.dirty != 0 {
				continue
			}
			guard := lane & guards
			if sat&guard != wantSat&guard {
				t.Fatalf("%s seed %d n %d call %d: lane %d guard bit %v, portable %v",
					w.name, seed, n, call, l, sat&guard != 0, wantSat&guard != 0)
			}
			if wantSat&guard == 0 {
				clean |= lane
			}
		}
		if (best^wantBest)&clean != 0 || (sat^wantSat)&clean != 0 {
			t.Fatalf("%s seed %d n %d call %d: best %#x sat %#x, portable %#x %#x (clean lanes %#x)",
				w.name, seed, n, call, best, sat, wantBest, wantSat, clean)
		}
		for j := range row {
			if (row[j]^want[j])&clean != 0 {
				t.Fatalf("%s seed %d n %d call %d: word %d = %#x, portable %#x (clean lanes %#x)",
					w.name, seed, n, call, j, row[j], want[j], clean)
			}
		}
	}
}

// FuzzRowQuadVsPortable pins the eight-row kernels the scan runs — on an
// AVX2 host the assembly ones — to the portable pass, four portable
// two-row passes, at both lane widths: rows of 1 to 300 words (under 8
// the skew's prologue and epilogue would overlap, and the kernels fall
// through to the portable pass), one to eight successive passes over one
// row buffer, zero to seven phantom 'N' rows ending the last, clean and
// dirty lanes side by side, random profile words and gaps up to the lane
// cap. The seeds, which plain `go test` runs, sweep every mode and
// phantom count over rows of one to 23 words and up to 300. (The name
// dates from the four-row kernel; its corpus entries still apply.)
func FuzzRowQuadVsPortable(f *testing.F) {
	for _, n := range []uint16{1, 4, 5} {
		// Every lane saturating on every diagonal, gap 0.
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

// FuzzRowPairVsPortable pins the portable two-row kernels, of which the
// eight-row pass is made and which every host without AVX2 runs, to the
// recurrence worked lane by lane (pairLanes), over the same inputs as
// FuzzRowQuadVsPortable: in every clean lane the guard bit of sat, and
// until it is set the lane of the row and of best.
func FuzzRowPairVsPortable(f *testing.F) {
	for _, n := range []uint16{1, 2} {
		f.Add(int64(n), n-1, uint8(2), uint16(0), uint8(0), uint8(2))
	}
	for seed := 0; seed < 48; seed++ {
		n := []uint16{1, 2, 3, 8, 65, 300}[seed%6]
		f.Add(int64(seed), n-1, uint8(seed), uint16(seed%12), uint8(seed*37), uint8(seed/6))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, calls uint8, gap uint16, dirty, mode uint8) {
		for _, w := range rowPairWidths {
			checkRowPair(t, w, seed, 1+int(n)%300, 1+int(calls)%8, uint64(gap), dirty, int(mode)%4)
		}
	})
}

// checkRowPair is FuzzRowPairVsPortable's check of one width.
func checkRowPair(t *testing.T, w rowPairWidth, seed int64, n, calls int, gap uint64, dirty uint8, mode int) {
	t.Helper()
	in, guards := newRowPairInputs(w, seed, dirty, mode)
	gapV := in.broadcast(gap)
	gapL := int(gapV & (1<<w.shift - 1))
	lane := func(word uint64, l int) int { return int(word >> (uint(l) * w.shift) & (1<<w.shift - 1)) }
	lanes := func(words []uint64, l int) []int {
		out := make([]int, len(words))
		for j, word := range words {
			out[j] = lane(word, l)
		}
		return out
	}
	row := make([]uint64, n)
	for j := range row {
		row[j] = in.word(in.dirty)
	}
	best := in.word(0)
	sat := in.r.Uint64() &^ guards
	type ref struct {
		row     []int
		best    int
		flagged bool
	}
	refs := make([]ref, in.lanes())
	for l := range refs {
		refs[l] = ref{row: lanes(row, l), best: lane(best, l)}
	}
	for call := 0; call < calls; call++ {
		plusA, minusA := in.profile(n)
		plusB, minusB := in.profile(n)
		best, sat = w.pair(row, plusA, minusA, plusB, minusB, gapV, best, sat)
		for l := range refs {
			r := &refs[l]
			if in.dirty>>(uint(l)*w.shift)&1 != 0 || r.flagged {
				continue
			}
			var f bool
			r.best, f = pairLanes(r.row, [2][]int{lanes(plusA, l), lanes(plusB, l)},
				[2][]int{lanes(minusA, l), lanes(minusB, l)}, gapL, r.best, int(in.capVal()))
			r.flagged = f
			if got := sat>>(uint(l+1)*w.shift-1)&1 != 0; got != f {
				t.Fatalf("%s seed %d n %d call %d: lane %d guard bit %v, recurrence %v", w.name, seed, n, call, l, got, f)
			}
			if f {
				continue
			}
			if got := lane(best, l); got != r.best {
				t.Fatalf("%s seed %d n %d call %d: lane %d best %d, recurrence %d", w.name, seed, n, call, l, got, r.best)
			}
			for j, v := range r.row {
				if got := lane(row[j], l); got != v {
					t.Fatalf("%s seed %d n %d call %d: lane %d word %d = %d, recurrence %d", w.name, seed, n, call, l, j, got, v)
				}
			}
		}
	}
}

// TestRowPairShortProfilePanics checks that the eight-row kernels refuse
// a profile row shorter than the row buffer, each of the sixteen (argK
// is plus[K/2] for even K, minus[K/2] for odd), as the portable kernels'
// bounds checks do: the AVX2 loop checks nothing itself, so its Go entry
// must. The rows are 9 words, long enough for the assembly, and each
// minus row sits where the assembly reads it, 9 words after its plus
// row. The entry must also refuse minus rows at different offsets
// ("stride"), which the portable pass does not read by offset.
func TestRowPairShortProfilePanics(t *testing.T) {
	const n = 9
	for _, w := range rowPairWidths {
		for name, k := range map[string]rowOctKernel{"kernel": w.kernel, "portable": w.portable} {
			for short := 0; short < 16; short++ {
				t.Run(fmt.Sprintf("%s/%s/arg%d", w.name, name, short), func(t *testing.T) {
					p := new(octProfile)
					for r := range p.plus {
						rows := make([]uint64, 2*n)
						p.plus[r], p.minus[r] = rows[:n], rows[n:]
					}
					if short%2 == 0 {
						p.plus[short/2] = p.plus[short/2][: n-1 : n-1]
					} else {
						p.minus[short/2] = p.minus[short/2][: n-1 : n-1]
					}
					defer func() {
						if recover() == nil {
							t.Fatalf("profile row %d of %d words for a %d-word row did not panic", short, n-1, n)
						}
					}()
					k(make([]uint64, n), p, 0, 0, 0)
				})
			}
		}
		if !hasAVX2 {
			continue
		}
		t.Run(w.name+"/kernel/stride", func(t *testing.T) {
			p := new(octProfile)
			for r := range p.plus {
				rows := make([]uint64, 2*n+1)
				p.plus[r], p.minus[r] = rows[:n], rows[n:2*n]
			}
			rows := make([]uint64, 2*n+1)
			p.plus[5], p.minus[5] = rows[:n], rows[n+1:]
			defer func() {
				if recover() == nil {
					t.Fatal("minus rows at offsets 9 and 10 from their plus rows did not panic")
				}
			}()
			w.kernel(make([]uint64, n), p, 0, 0, 0)
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
	prof := bio.NewPackedProfile8(targets, bio.DefaultScoring())
	gapV := prof.Broadcast(-bio.DefaultScoring().Gap)
	row := make([]uint64, prof.Words())
	scan := func(k rowOctKernel) uint64 {
		clear(row)
		var best, sat uint64
		var p octProfile
		for i := 0; i+7 < len(q); i += 8 {
			for r := range p.plus {
				p.plus[r], p.minus[r] = prof.PlusRow(q[i+r]), prof.MinusRow(q[i+r])
			}
			best, sat = k(row, &p, gapV, best, sat)
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
