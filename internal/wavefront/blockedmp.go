package wavefront

import (
	"fmt"
	"sync"

	"genomedsm/internal/bio"
	"genomedsm/internal/cluster"
	"genomedsm/internal/dsm"
	"genomedsm/internal/heuristics"
)

// RunBlockedMP is the message-passing ablation of strategy 2: the same
// bands×blocks decomposition and the same cell kernel, but border rows
// travel as direct point-to-point messages instead of DSM pages — no
// page faults, twins, diffs or write notices. The paper chose DSM for its
// programming model and names message passing as future work for
// inter-cluster communication; this variant quantifies what the DSM
// abstraction costs on the same network model.
//
// Fault support is timing-only: injected message loss charges each send
// the same capped-exponential retransmission backoff the DSM layer uses.
// Crash-stop faults are not supported here — there is no page table to
// re-home and no checkpoint facility outside the DSM layer — so the
// chaos harness never schedules kills against this variant.
func RunBlockedMP(nprocs int, cfg cluster.Config, s, t bio.Sequence, sc bio.Scoring, p heuristics.Params, bc BlockConfig) (*Result, error) {
	m, n := s.Len(), t.Len()
	if nprocs < 1 {
		return nil, fmt.Errorf("wavefront: nprocs %d", nprocs)
	}
	if m == 0 || n == 0 {
		return &Result{}, nil
	}
	if err := bc.Validate(m, n); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	kern, err := heuristics.NewKernel(s, t, sc, p)
	if err != nil {
		return nil, err
	}

	type mpMsg struct {
		cells []heuristics.Cell
		at    float64 // sender's virtual time at send
	}
	// One channel per band boundary, buffered for the whole band so the
	// producer never blocks (mirrors the full-row slots of the DSM
	// version).
	chans := make([]chan mpMsg, bc.Bands-1)
	for b := range chans {
		chans[b] = make(chan mpMsg, bc.Blocks)
	}
	gather := make(chan mpMsg, nprocs)

	bandRows := func(b int) (int, int) { return b*m/bc.Bands + 1, (b + 1) * m / bc.Bands }
	blockCols := func(k int) (int, int) { return k*n/bc.Blocks + 1, (k + 1) * n / bc.Blocks }
	maxW := (n + bc.Blocks - 1) / bc.Blocks * 2
	maxH := 0
	for b := 0; b < bc.Bands; b++ {
		r0, r1 := bandRows(b)
		if h := r1 - r0 + 1; h > maxH {
			maxH = h
		}
	}

	clocks := make([]cluster.Clock, nprocs)
	queues := make([]heuristics.Queue, nprocs)
	var stats dsm.Stats
	var statsMu sync.Mutex
	errs := make([]error, nprocs)
	var wg sync.WaitGroup
	for id := 0; id < nprocs; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			clock := &clocks[id]
			emit := queues[id].Add
			var lastRow []heuristics.Cell
			// Per-node row/column buffers, resliced per band and tile.
			rightColBuf := make([]heuristics.Cell, maxH)
			prev := make([]heuristics.Cell, maxW+1)
			cur := make([]heuristics.Cell, maxW+1)
			top := make([]heuristics.Cell, maxW)
			msgs, bytes := int64(0), int64(0)
			// Injected message loss costs the sender one retransmission
			// timeout per lost attempt, as in the DSM layer's lossRetries.
			recParams := cfg.RecoveryParams()
			sendNo := uint64(0)
			lossDelay := func(class cluster.MsgClass) float64 {
				sendNo++
				lost := cfg.LostAttempts(class, id)
				if lost == 0 {
					return 0
				}
				msgs += int64(lost)
				return recParams.Retry.Total(uint64(id)<<48^uint64(class)<<40^sendNo, lost)
			}
			defer func() {
				statsMu.Lock()
				stats.MsgsSent += msgs
				stats.BytesMoved += bytes
				statsMu.Unlock()
			}()

			for band := id; band < bc.Bands; band += nprocs {
				r0, r1 := bandRows(band)
				height := r1 - r0 + 1
				rightCol := rightColBuf[:height]
				clear(rightCol)
				var corner heuristics.Cell

				for blk := 0; blk < bc.Blocks; blk++ {
					c0, c1 := blockCols(blk)
					width := c1 - c0 + 1
					top := top[:width]
					if band == 0 {
						clear(top)
					} else {
						msg := <-chans[band-1]
						copy(top, msg.cells)
						clock.AdvanceTo(msg.at+cfg.Net.MessageCost(width*heuristics.CellBytes), cluster.Comm)
					}
					prev[0] = corner
					copy(prev[1:], top)
					for x := 0; x < height; x++ {
						r := r0 + x
						cur[0] = rightCol[x]
						kern.StepRow(prev[:width+1], cur[:width+1], r, c0, emit)
						if r == m {
							if lastRow == nil {
								lastRow = make([]heuristics.Cell, n)
							}
							copy(lastRow[c0-1:], cur[1:width+1])
						}
						rightCol[x] = cur[width]
						prev, cur = cur, prev
					}
					clock.Advance(float64(height)*float64(width)*cfg.CellTime, cluster.Compute)
					corner = top[width-1]
					if band < bc.Bands-1 {
						// This allocation must stay per send: ownership of the
						// slice moves to the consumer with the message, while
						// prev is reused for the next tile.
						row := make([]heuristics.Cell, width)
						copy(row, prev[1:width+1])
						clock.Advance(cfg.Net.PerMessageCPU+lossDelay(cluster.MsgDiff), cluster.Comm)
						msgs++
						bytes += int64(width * heuristics.CellBytes)
						// Border rows are this variant's diff analogue, so
						// they answer to the same fault class.
						at := clock.Now() + cfg.FaultDelay(cluster.MsgDiff, id)
						chans[band] <- mpMsg{cells: row, at: at}
					}
				}
			}
			for x := range lastRow {
				kern.Flush(&lastRow[x], emit)
			}
			// Ship the local queue to node 0.
			size := queues[id].Len()*candidateBytes + msgHeader
			clock.Advance(cfg.Net.PerMessageCPU+lossDelay(cluster.MsgSync), cluster.Comm)
			msgs++
			bytes += int64(size)
			gather <- mpMsg{at: clock.Now() + cfg.Net.MessageCost(size)}
			errs[id] = nil
		}(id)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", id, err)
		}
	}
	// Node 0 collects: its clock advances to the latest gather arrival.
	for i := 0; i < nprocs; i++ {
		msg := <-gather
		clocks[0].AdvanceTo(msg.at, cluster.Comm)
	}
	var q heuristics.Queue
	for i := range queues {
		q.AddAll(&queues[i])
	}
	res := &Result{Candidates: q.Finalize(), Stats: stats}
	for i := range clocks {
		b := clocks[i].Breakdown()
		res.Breakdowns = append(res.Breakdowns, b)
		if b.Total > res.Makespan {
			res.Makespan = b.Total
		}
	}
	return res, nil
}

// msgHeader approximates a message-passing envelope.
const msgHeader = 32
