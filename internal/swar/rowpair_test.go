package swar

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"genomedsm/internal/bio"
)

// rowPairKernel is the signature both two-row kernels share.
type rowPairKernel func(row, plusA, minusA, plusB, minusB []uint64, gapV, best, sat uint64) (uint64, uint64)

// rowPairWidth is one lane width: the kernel under test, the portable
// kernel it must agree with, and the lane geometry.
type rowPairWidth struct {
	name             string
	kernel, portable rowPairKernel
	shift            uint // bits per lane
}

var rowPairWidths = []rowPairWidth{
	{"int8", rowPair8, rowPair8Go, 8},
	{"int16", rowPair16, rowPair16Go, 16},
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

// checkRowPair runs the kernel and the portable kernel side by side for
// calls successive row pairs over one row of n words and fails on the
// first difference in what the ladder reads: every clean lane's guard
// bit of sat, and in every clean lane that has not set it the whole
// lane of the row, of best and of sat.
func checkRowPair(t *testing.T, w rowPairWidth, seed int64, n, calls int, gap uint64, dirty uint8, mode int) {
	t.Helper()
	in := &rowPairInputs{r: rand.New(rand.NewSource(seed)), w: w, mode: mode}
	laneBits := uint64(1)<<w.shift - 1
	guards := uint64(0)
	for l := 0; l < in.lanes(); l++ {
		guards |= (laneBits + 1) >> 1 << (uint(l) * w.shift)
		if dirty>>uint(l)&1 != 0 {
			in.dirty |= laneBits << (uint(l) * w.shift)
		}
	}
	gap = min(gap, in.capVal())
	var gapV uint64
	for l := 0; l < in.lanes(); l++ {
		gapV |= gap << (uint(l) * w.shift)
	}
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
		plusA, minusA := in.profile(n)
		plusB, minusB := in.profile(n)
		best, sat = w.kernel(row, plusA, minusA, plusB, minusB, gapV, best, sat)
		wantBest, wantSat = w.portable(want, plusA, minusA, plusB, minusB, gapV, wantBest, wantSat)
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

// FuzzRowPairVsPortable pins the two-row kernels the scan runs — on
// amd64 the SSE2 ones — to the portable guard-bit kernels, at both lane
// widths: rows of 1 to 300 words, up to eight successive row pairs over
// one row buffer, clean and dirty lanes side by side, random profile
// words and gaps up to the lane cap. The seeds, which plain `go test`
// runs, sweep every mode over one- and two-word rows up to 300 words.
func FuzzRowPairVsPortable(f *testing.F) {
	for _, n := range []uint16{1, 2} {
		// Every lane saturating on every diagonal, gap 0.
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

// TestRowPairShortProfilePanics checks that the kernels refuse a
// profile row shorter than the row buffer, each of the four, as the
// portable kernels' bounds checks do: the SSE2 loop checks nothing
// itself, so its Go entry must.
func TestRowPairShortProfilePanics(t *testing.T) {
	for _, w := range rowPairWidths {
		for name, k := range map[string]rowPairKernel{"kernel": w.kernel, "portable": w.portable} {
			for short := 0; short < 4; short++ {
				t.Run(fmt.Sprintf("%s/%s/arg%d", w.name, name, short), func(t *testing.T) {
					const n = 5
					var args [4][]uint64
					for i := range args {
						args[i] = make([]uint64, n)
					}
					args[short] = make([]uint64, n-1)
					defer func() {
						if recover() == nil {
							t.Fatalf("profile row %d of %d words for a %d-word row did not panic", short, n-1, n)
						}
					}()
					k(make([]uint64, n), args[0], args[1], args[2], args[3], 0, 0, 0)
				})
			}
		}
	}
}

// BenchmarkRowPair8VsPortable times rowPair8 and the portable
// rowPair8Go over one 8-lane group, a 1000-base query against eight
// 1000-base targets, the two arms alternated in each iteration and the
// first of them switched every iteration, as the root
// SearchShardedPruned does. It reports the time ratio portable/sse2 —
// a same-run reading, so the host's speed that hour cancels — and the
// kernel's cells/s. ci.sh gates the median ratio of five runs at ≥ 2
// on amd64.
func BenchmarkRowPair8VsPortable(b *testing.B) {
	g := bio.NewGenerator(39)
	q := g.Random(1000)
	targets := make([]bio.Sequence, bio.PackedLanes8)
	for i := range targets {
		targets[i] = g.Random(1000)
	}
	prof := bio.NewPackedProfile8(targets, bio.DefaultScoring())
	gapV := prof.Broadcast(-bio.DefaultScoring().Gap)
	row := make([]uint64, prof.Words())
	scan := func(k rowPairKernel) uint64 {
		clear(row)
		var best, sat uint64
		for i := 0; i+1 < len(q); i += 2 {
			best, sat = k(row, prof.PlusRow(q[i]), prof.MinusRow(q[i]), prof.PlusRow(q[i+1]), prof.MinusRow(q[i+1]), gapV, best, sat)
		}
		return best | sat&hi8
	}
	if scan(rowPair8) != scan(rowPair8Go) {
		b.Fatal("rowPair8 and rowPair8Go disagree on the benchmark group")
	}
	timed := func(k rowPairKernel) time.Duration {
		start := time.Now()
		scan(k)
		return time.Since(start)
	}
	var fast, portable time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			fast += timed(rowPair8)
			portable += timed(rowPair8Go)
		} else {
			portable += timed(rowPair8Go)
			fast += timed(rowPair8)
		}
	}
	b.ReportMetric(float64(portable)/float64(fast), "portable/sse2")
	b.ReportMetric(float64(b.N)*float64(len(q))*float64(len(row)*bio.PackedLanes8)/fast.Seconds(), "cells/s")
}
