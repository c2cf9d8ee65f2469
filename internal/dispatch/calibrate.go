package dispatch

import (
	"time"

	"genomedsm/internal/bio"
	"genomedsm/internal/swar"
)

// Calibration probes. Each kernel family is timed on deterministic
// synthetic sequences at two matrix sizes; the two (cells, time) points
// solve the linear cost model t = overhead + cells/throughput,
// separating a family's asymptotic Mcells/s from its per-call setup
// cost (profile construction, row buffers). No start path runs them:
// routers read the committed table, and a test checks that a same-run
// Calibrate reaches the same Pair and Band verdicts as that table.
//
// Probe inputs are random DNA under the default scoring, whose local
// scores stay far below the int8 clean range: the narrow kernels are
// timed on their fast path.

// probe sizes: the small size exposes per-call overhead, the large one
// the asymptotic throughput.
const (
	probeSmall = 128
	probeLarge = 512
	// probeMinTime is the minimum measured wall time per (family, size)
	// point; calls are repeated until it is exceeded so timer
	// granularity cannot dominate.
	probeMinTime = 200 * time.Microsecond
	// probeMaxReps caps the repetitions so a mis-measured fast family
	// cannot stall the probe.
	probeMaxReps = 512
	// probePasses timed passes are taken per point; the minimum wins.
	probePasses = 5
)

// measure times fn (which scans cells cells per call) and returns the
// per-call seconds: the minimum over a few timed passes, since the
// minimum is the least contaminated by scheduler and GC interference.
func measure(cells float64, fn func()) (secsPerCall float64) {
	fn() // warm caches and lazily-allocated buffers outside the timer
	reps := 1
	for {
		start := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		el := time.Since(start)
		if el >= probeMinTime || reps >= probeMaxReps {
			break
		}
		reps *= 2
	}
	best := 0.0
	for pass := 0; pass < probePasses; pass++ {
		start := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		if s := time.Since(start).Seconds() / float64(reps); pass == 0 || s < best {
			best = s
		}
	}
	return best
}

// fit solves the two-point cost model: t = overhead + cells/th.
// Degenerate measurements (non-increasing time) collapse to a pure
// throughput model with zero overhead.
func fit(c1, t1, c2, t2 float64) FamilyStats {
	if t2 > t1 && c2 > c1 {
		th := (c2 - c1) / (t2 - t1)
		over := t1 - c1/th
		if over < 0 {
			over = 0
		}
		return FamilyStats{MCells: th / 1e6, OverheadNS: over * 1e9}
	}
	if t2 > 0 {
		return FamilyStats{MCells: c2 / t2 / 1e6}
	}
	return defaultStats[FamScalar]
}

// Calibrate probes every kernel family on this host and returns the
// measured profile. It allocates only probe-sized buffers and runs for
// a few milliseconds.
func Calibrate() *Profile {
	g := bio.NewGenerator(1)
	sc := bio.DefaultScoring()
	q := g.Random(probeLarge)
	t := g.Random(probeLarge)
	var al swar.Aligner

	fams := make(map[string]FamilyStats, len(Families))
	twoPoint := func(fam string, run func(n int), cellsOf func(n int) float64) {
		t1 := measure(cellsOf(probeSmall), func() { run(probeSmall) })
		t2 := measure(cellsOf(probeLarge), func() { run(probeLarge) })
		fams[fam] = fit(cellsOf(probeSmall), t1, cellsOf(probeLarge), t2)
	}

	twoPoint(FamScalar, func(n int) {
		swar.ScalarScoreBounded(q[:n], t[:n], sc, nil)
	}, func(n int) float64 { return float64(n) * float64(n) })

	twoPoint(FamStriped8, func(n int) {
		al.StripedScan8(q[:n], t[:n], sc)
	}, func(n int) float64 { return float64(n) * float64(n) })

	twoPoint(FamStriped16, func(n int) {
		al.StripedScan16(q[:n], t[:n], sc)
	}, func(n int) float64 { return float64(n) * float64(n) })

	// The band probe advances a 64-row band across n columns from zero
	// borders — the pre-process chunk interior at its typical shape.
	const bandRows = 64
	rows := g.Random(bandRows)
	kern := swar.NewBandKernel(rows, sc, 1<<30)
	left := make([]int32, bandRows)
	bottom := make([]int32, probeLarge)
	hits := make([]int32, probeLarge)
	twoPoint(FamBand, func(n int) {
		clear(left)
		args := swar.ChunkArgs{
			Cols:   t[:n],
			Left:   left,
			Bottom: bottom[:n],
			Hits:   hits[:n],
		}
		if _, done, err := kern.Chunk(&args); done == 0 || err != nil {
			panic("dispatch: band probe rejected by its own kernel")
		}
	}, func(n int) float64 { return float64(bandRows) * float64(n) })

	return &Profile{Families: fams}
}
