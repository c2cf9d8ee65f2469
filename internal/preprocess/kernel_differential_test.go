package preprocess

import (
	"reflect"
	"testing"

	"genomedsm/internal/cluster"
)

// TestBandKernelDifferentialRun runs the same pre-process twice — striped
// band kernel enabled and forced-scalar — and requires bit-identical
// results: best tracking (score and coordinates), the full result
// matrix, and every saved column and border row. This is the end-to-end
// guarantee behind swapping the kernel into the chunk loop: cluster
// semantics, checkpoints and sink output may not change by one bit.
func TestBandKernelDifferentialRun(t *testing.T) {
	s, tt := testPair(t, 911, 700)
	cfgs := []Config{
		// Narrow bands, immediate saving, offbeat interleaves.
		{BandScheme: BandFixed, BandSize: 37, ChunkSize: 48, ResultInterleave: 64,
			Threshold: 12, SaveInterleave: 53, IOMode: IOImmediate},
		// One band per node, deferred I/O, low threshold (dense hits).
		{BandScheme: BandEqual, BandSize: 1, ChunkSize: 100, ResultInterleave: 32,
			Threshold: 3, SaveInterleave: 61, IOMode: IODeferred},
		// No saving at all, growing chunks.
		{BandScheme: BandFixed, BandSize: 80, ChunkSize: 32, ChunkGrowth: GrowthGeometric,
			GrowthStep: 2, ResultInterleave: 50, Threshold: 20, IOMode: IONone},
	}
	for ci, cfg := range cfgs {
		run := func(disable bool) (*Result, *MemSink) {
			t.Helper()
			disableBandKernel = disable
			defer func() { disableBandKernel = false }()
			sink := NewMemSink()
			res, err := Run(3, cluster.Zero(), s, tt, sc, cfg, sink)
			if err != nil {
				t.Fatalf("cfg %d disable=%v: %v", ci, disable, err)
			}
			return res, sink
		}
		kres, ksink := run(false)
		sres, ssink := run(true)
		if kres.BestScore != sres.BestScore || kres.BestI != sres.BestI || kres.BestJ != sres.BestJ {
			t.Errorf("cfg %d: kernel best %d@(%d,%d), scalar %d@(%d,%d)", ci,
				kres.BestScore, kres.BestI, kres.BestJ, sres.BestScore, sres.BestI, sres.BestJ)
		}
		if kres.TotalHits != sres.TotalHits {
			t.Errorf("cfg %d: kernel hits %d, scalar %d", ci, kres.TotalHits, sres.TotalHits)
		}
		if !reflect.DeepEqual(kres.ResultMatrix, sres.ResultMatrix) {
			t.Errorf("cfg %d: result matrices differ", ci)
		}
		if kres.ColumnsSaved != sres.ColumnsSaved || kres.BorderRowsSaved != sres.BorderRowsSaved ||
			kres.BytesSaved != sres.BytesSaved {
			t.Errorf("cfg %d: kernel saved (%d cols, %d rows, %d B), scalar (%d, %d, %d)", ci,
				kres.ColumnsSaved, kres.BorderRowsSaved, kres.BytesSaved,
				sres.ColumnsSaved, sres.BorderRowsSaved, sres.BytesSaved)
		}
		if !reflect.DeepEqual(ksink.Columns, ssink.Columns) || !reflect.DeepEqual(ksink.Starts, ssink.Starts) {
			t.Errorf("cfg %d: saved columns differ", ci)
		}
		if !reflect.DeepEqual(ksink.Border, ssink.Border) {
			t.Errorf("cfg %d: saved border rows differ", ci)
		}
	}
}

// TestBandKernelCutoff pins the band rule: a band shorter than a word of
// int8 lanes runs the scalar column loop, a taller one the band kernel,
// and the differential switch sends every band to the scalar loop.
func TestBandKernelCutoff(t *testing.T) {
	for rows, want := range map[int]bool{4: false, 7: false, 8: true, 64: true} {
		if got := bandKernel(rows); got != want {
			t.Errorf("bandKernel(%d) = %v, want %v", rows, got, want)
		}
	}
	disableBandKernel = true
	defer func() { disableBandKernel = false }()
	if bandKernel(64) {
		t.Error("bandKernel(64) ran the kernel with the kernel disabled")
	}
}
