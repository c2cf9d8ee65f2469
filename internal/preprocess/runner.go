package preprocess

import (
	"fmt"

	"genomedsm/internal/bio"
	"genomedsm/internal/cluster"
	"genomedsm/internal/dsm"
	"genomedsm/internal/recovery"
	"genomedsm/internal/swar"
)

// disableBandKernel forces every chunk through the scalar loop. The
// differential test flips it to prove the striped and scalar paths
// produce bit-identical runs (hits, best tracking, saved columns,
// checkpoint state included).
var disableBandKernel bool

// bandKernel reports whether a band of h rows runs the striped band
// kernel: one shorter than a word of int8 lanes would be mostly
// padding, so it runs the scalar column loop.
func bandKernel(h int) bool {
	return !disableBandKernel && h >= bio.PackedLanes8
}

// Result is the outcome of a pre-process run.
type Result struct {
	// Bands is the band layout used.
	Bands []Band
	// ResultMatrix[band][g] counts the cells of that band with score >=
	// Threshold among columns c with floor(c/ResultInterleave) == g.
	ResultMatrix [][]int64
	// TotalHits is the grand total of the result matrix.
	TotalHits int64
	// BestScore and its end coordinates, tracked exactly (no heuristics).
	BestScore    int
	BestI, BestJ int
	// ColumnsSaved / BorderRowsSaved / BytesSaved describe the I/O volume.
	ColumnsSaved    int
	BorderRowsSaved int
	BytesSaved      int64
	// Times per the paper's measurement protocol (§5.1): Core is the
	// score-matrix calculation (the number reported in Figs. 18–20), Term
	// covers deferred I/O and the final synchronization.
	CoreTime float64
	TermTime float64
	// Makespan is the full simulated time including result collection.
	Makespan   float64
	Breakdowns []cluster.Breakdown
	Stats      dsm.Stats
}

// Run executes the pre-process strategy over s (rows) and t (columns) on
// nprocs simulated nodes. sink receives saved columns and border rows (it
// may be nil when cfg.IOMode is IONone or SaveInterleave is 0).
func Run(nprocs int, cc cluster.Config, s, t bio.Sequence, sc bio.Scoring, cfg Config, sink ColumnSink) (*Result, error) {
	m, n := s.Len(), t.Len()
	if nprocs < 1 {
		return nil, fmt.Errorf("preprocess: nprocs %d", nprocs)
	}
	if err := scoringCheck(sc); err != nil {
		return nil, err
	}
	if err := cfg.Validate(m, n); err != nil {
		return nil, err
	}
	saving := cfg.IOMode != IONone && cfg.SaveInterleave > 0
	if saving && sink == nil {
		return nil, fmt.Errorf("preprocess: saving enabled but no sink provided")
	}
	bands, err := cfg.PlanBands(m, nprocs)
	if err != nil {
		return nil, err
	}
	chunks := cfg.PlanChunks(n)

	sys, err := dsm.NewSystem(nprocs, cc, dsm.Options{
		CondVars: len(bands) + 1,
		Locks:    4,
	})
	if err != nil {
		return nil, err
	}
	// One passage-band row per boundary, homed at the producer.
	borders := make([]dsm.Region, len(bands)-1)
	for b := range borders {
		if borders[b], err = sys.AllocAt(4*n, bands[b].Owner); err != nil {
			return nil, err
		}
	}
	// The result matrix: one row of int64 counters per band, homed at the
	// band's owner so each node handles its writes locally (§5.1).
	rowWidth := n/cfg.ResultInterleave + 1
	rRegions := make([]dsm.Region, len(bands))
	for b := range bands {
		if rRegions[b], err = sys.AllocAt(8*rowWidth, bands[b].Owner); err != nil {
			return nil, err
		}
	}

	res := &Result{Bands: bands, ResultMatrix: make([][]int64, len(bands))}
	type nodeOut struct {
		core, term           float64
		best, bestI, bestJ   int
		colsSaved, rowsSaved int
		bytesSaved           int64
	}
	outs := make([]nodeOut, nprocs)

	err = sys.Run(func(node *dsm.Node) error {
		id := node.ID()
		out := &outs[id]

		type deferredCol struct {
			band, col, r0 int
			values        []int32
		}
		var deferred []deferredCol

		// Crash recovery: resume from the checkpointed chunk cursor. The
		// blob carries the band-local column state, the accumulated
		// per-node result fields and the deferred-I/O list; bands this
		// node finished before the crash already published their hits to
		// the (re-homed, surviving) result-matrix pages.
		firstBand, firstChunk := 0, 0
		var resPrevCol, resBottom []int32
		var resHits []int64
		var coreStart float64
		if ck := node.Restored(); ck != nil {
			firstBand = ck.Int()
			firstChunk = ck.Int()
			resPrevCol = ck.Int32s()
			resBottom = ck.Int32s()
			resHits = ck.Int64s()
			out.best = ck.Int()
			out.bestI = ck.Int()
			out.bestJ = ck.Int()
			out.colsSaved = ck.Int()
			out.rowsSaved = ck.Int()
			out.bytesSaved = ck.Int64()
			coreStart = ck.Float()
			for i, cnt := 0, ck.Int(); i < cnt; i++ {
				var d deferredCol
				d.band = ck.Int()
				d.col = ck.Int()
				d.r0 = ck.Int()
				d.values = ck.Int32s()
				deferred = append(deferred, d)
			}
			if err := ck.Err(); err != nil {
				return err
			}
		} else {
			if err := node.Barrier(); err != nil {
				return err
			}
			coreStart = node.Clock().Now()
		}
		disk := node.Config().Disk

		saveColumn := func(band, col, r0 int, values []int32) error {
			cp := make([]int32, len(values))
			copy(cp, values)
			out.colsSaved++
			out.bytesSaved += int64(4 * len(cp))
			if cfg.IOMode == IODeferred {
				deferred = append(deferred, deferredCol{band, col, r0, cp})
				return nil
			}
			node.Clock().Advance(disk.WriteCost(4*len(cp)), cluster.IO)
			return sink.WriteColumn(band, col, r0, cp)
		}

		for bi := firstBand; bi < len(bands); bi++ {
			band := bands[bi]
			if band.Owner != id {
				continue
			}
			h := band.Rows()
			// The striped band kernel advances whole columns in packed
			// lanes; chunks whose value bound overflows both lane widths
			// (or a disabled kernel) fall back to the scalar loop below,
			// which stays the differential oracle.
			var kern *swar.BandKernel
			if bandKernel(h) {
				kern = swar.NewBandKernel(s[band.R0-1:band.R0-1+h], sc, cfg.Threshold)
			}
			var hitbuf []int32
			// prevCol[x] is the value at (band.R0-1+x, j-1); col[x] the
			// current column. Index 0 is the top border row.
			prevCol := make([]int32, h+1)
			col := make([]int32, h+1)
			topRow := make([]int32, 0, n) // received top border values, per chunk
			bottom := make([]int32, n)    // this band's bottom row (row band.R1)
			hits := make([]int64, rowWidth)
			ci0 := 0
			if bi == firstBand && firstChunk > 0 {
				// Mid-band resume: restore the carried column state.
				ci0 = firstChunk
				copy(prevCol, resPrevCol)
				copy(bottom, resBottom)
				copy(hits, resHits)
			}

			for ci := ci0; ci < len(chunks); ci++ {
				ch := chunks[ci]
				c0, c1 := ch[0], ch[1]
				width := c1 - c0 + 1
				topRow = topRow[:width]
				if band.Index > 0 {
					if err := node.Waitcv(band.Index - 1); err != nil {
						return err
					}
					if err := node.ReadInt32s(borders[band.Index-1], 4*(c0-1), topRow); err != nil {
						return err
					}
				} else {
					for x := range topRow {
						topRow[x] = 0
					}
				}
				done := 0
				if kern != nil {
					if cap(hitbuf) < width {
						hitbuf = make([]int32, width)
					}
					args := swar.ChunkArgs{
						Cols:   t[c0-1 : c1],
						Diag:   prevCol[0],
						Left:   prevCol[1:],
						Top:    topRow,
						BestIn: out.best,
						Bottom: bottom[c0-1 : c1],
						Hits:   hitbuf[:width],
					}
					if saving {
						args.WantCol = func(ci int) bool { return (c0+ci)%cfg.SaveInterleave == 0 }
						args.Save = func(ci int, values []int32) error {
							return saveColumn(band.Index, c0+ci, band.R0, values)
						}
					}
					var cb swar.ChunkBest
					var err error
					cb, done, err = kern.Chunk(&args)
					if err != nil {
						return err
					}
					if done > 0 {
						for x := 0; x < done; x++ {
							hits[(c0+x)/cfg.ResultInterleave] += int64(hitbuf[x])
						}
						if cb.Improved {
							out.best, out.bestI, out.bestJ = cb.Score, band.R0+cb.Row, c0+cb.Col
						}
						// The carried column's border cell, exactly as the
						// scalar loop's final swap would leave it.
						prevCol[0] = topRow[done-1]
					}
				}
				if done < width {
					// Scalar continuation for the columns the kernel did
					// not consume (all of them when the kernel is off).
					for j := c0 + done; j <= c1; j++ {
						tj := t[j-1]
						col[0] = topRow[j-c0]
						for x := 1; x <= h; x++ {
							i := band.R0 + x - 1
							v := int(prevCol[x-1]) + sc.Pair(s[i-1], tj)
							if w := int(prevCol[x]) + sc.Gap; w > v {
								v = w
							}
							if no := int(col[x-1]) + sc.Gap; no > v {
								v = no
							}
							if v < 0 {
								v = 0
							}
							col[x] = int32(v)
							if v >= cfg.Threshold {
								hits[j/cfg.ResultInterleave]++
							}
							if v > out.best {
								out.best, out.bestI, out.bestJ = v, i, j
							}
						}
						bottom[j-1] = col[h]
						if saving && j%cfg.SaveInterleave == 0 {
							if err := saveColumn(band.Index, j, band.R0, col[1:]); err != nil {
								return err
							}
						}
						prevCol, col = col, prevCol
					}
				}
				node.Compute(int64(h) * int64(width))
				if band.Index < len(bands)-1 {
					if err := node.WriteInt32s(borders[band.Index], 4*(c0-1), bottom[c0-1:c1]); err != nil {
						return err
					}
					if err := node.Setcv(band.Index); err != nil {
						return err
					}
				}
				// Chunk boundary: a recovery point (mid-band only; the
				// band's tail work — row save, hits publication — belongs
				// to the resumed pass over its remaining chunks).
				if ci+1 < len(chunks) {
					bandIdx, nextChunk := bi, ci+1
					if err := node.Checkpoint(func(w *recovery.Writer) {
						w.Int(bandIdx)
						w.Int(nextChunk)
						w.Int32s(prevCol)
						w.Int32s(bottom)
						w.Int64s(hits)
						w.Int(out.best)
						w.Int(out.bestI)
						w.Int(out.bestJ)
						w.Int(out.colsSaved)
						w.Int(out.rowsSaved)
						w.Int64(out.bytesSaved)
						w.Float(coreStart)
						w.Int(len(deferred))
						for _, d := range deferred {
							w.Int(d.band)
							w.Int(d.col)
							w.Int(d.r0)
							w.Int32s(d.values)
						}
					}); err != nil {
						return err
					}
				}
			}
			// The passage band is saved once the last of its cells has
			// been updated (§5).
			if saving && band.Index < len(bands)-1 {
				out.rowsSaved++
				out.bytesSaved += int64(4 * n)
				if cfg.IOMode == IODeferred {
					cp := make([]int32, n)
					copy(cp, bottom)
					deferred = append(deferred, deferredCol{band.Index, -1, band.R1, cp})
				} else {
					node.Clock().Advance(disk.WriteCost(4*n), cluster.IO)
					if err := sink.WriteBorderRow(band.Index, band.R1, bottom); err != nil {
						return err
					}
				}
			}
			// Publish this band's result-matrix row (local home writes).
			for g, hv := range hits {
				if hv != 0 {
					if err := node.WriteInt64(rRegions[band.Index], 8*g, hv); err != nil {
						return err
					}
				}
			}
		}
		out.core = node.Clock().Now() - coreStart

		// Term phase: deferred I/O, then the final barrier.
		for _, d := range deferred {
			node.Clock().Advance(disk.WriteCost(4*len(d.values)), cluster.IO)
			if d.col >= 0 {
				if err := sink.WriteColumn(d.band, d.col, d.r0, d.values); err != nil {
					return err
				}
			} else {
				if err := sink.WriteBorderRow(d.band, d.r0, d.values); err != nil {
					return err
				}
			}
		}
		if err := node.Barrier(); err != nil {
			return err
		}
		out.term = node.Clock().Now() - coreStart - out.core

		// Node 0 collects the result matrix.
		if id == 0 {
			for b := range bands {
				row := make([]int64, rowWidth)
				for g := range row {
					v, err := node.ReadInt64(rRegions[b], 8*g)
					if err != nil {
						return err
					}
					row[g] = v
				}
				res.ResultMatrix[b] = row
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, o := range outs {
		if o.core > res.CoreTime {
			res.CoreTime = o.core
		}
		if o.term > res.TermTime {
			res.TermTime = o.term
		}
		if o.best > res.BestScore {
			res.BestScore, res.BestI, res.BestJ = o.best, o.bestI, o.bestJ
		}
		res.ColumnsSaved += o.colsSaved
		res.BorderRowsSaved += o.rowsSaved
		res.BytesSaved += o.bytesSaved
	}
	for _, row := range res.ResultMatrix {
		for _, v := range row {
			res.TotalHits += v
		}
	}
	res.Makespan = sys.Makespan()
	res.Breakdowns = sys.Breakdowns()
	res.Stats = sys.TotalStats()
	return res, nil
}

// InterestingBlocks returns the result-matrix cells with at least minHits
// hits, the regions the paper suggests re-processing to retrieve actual
// alignments ("having the total number of hits will hint whether
// investigating further in that block of data").
func InterestingBlocks(res *Result, minHits int64) [][2]int {
	var out [][2]int
	for b, row := range res.ResultMatrix {
		for g, v := range row {
			if v >= minHits {
				out = append(out, [2]int{b, g})
			}
		}
	}
	return out
}
