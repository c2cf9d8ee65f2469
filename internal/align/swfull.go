package align

import (
	"fmt"
	"sort"

	"genomedsm/internal/bio"
)

// Arrow flags stored per cell of the full similarity matrix (§2.1). A cell
// may carry several arrows when the maximum is attained in more than one
// way; traceback follows a fixed preference so results are deterministic.
const (
	ArrowDiag  byte = 1 << iota // from A[i-1][j-1] (north-west)
	ArrowWest                   // from A[i][j-1] (space in s)
	ArrowNorth                  // from A[i-1][j] (space in t)
)

// Matrix is the full (m+1)×(n+1) similarity matrix of the Smith–Waterman
// algorithm, including traceback arrows. Its memory footprint is
// quadratic; it exists for small inputs, correctness baselines and the
// retrieval of alignments inside similar regions, exactly as in the paper
// (long sequences go through the linear-space variants instead).
type Matrix struct {
	S, T    bio.Sequence
	Scoring bio.Scoring
	Local   bool // zero-clamped local recurrence vs. global (NW) recurrence

	rows, cols int // m+1, n+1 where m=|S|, n=|T|
	score      []int32
	arrows     []byte
}

// maxFullCells bounds the memory of a full-matrix computation. 64M cells
// ≈ 320 MB, far beyond anything the full matrix is needed for (the paper
// notes two 10 kBP sequences already require 400 MB of column data).
const maxFullCells = 64 << 20

// NewSWMatrix computes the full local-alignment similarity matrix for s
// and t: first row and column zero, interior cells from Eq. (1).
func NewSWMatrix(s, t bio.Sequence, sc bio.Scoring) (*Matrix, error) {
	return newMatrix(s, t, sc, true)
}

// NewNWMatrix computes the full global-alignment (Needleman–Wunsch)
// matrix: the zero option of Eq. (1) is removed and the first row and
// column hold accumulated gap penalties (§2.3).
func NewNWMatrix(s, t bio.Sequence, sc bio.Scoring) (*Matrix, error) {
	return newMatrix(s, t, sc, false)
}

func newMatrix(s, t bio.Sequence, sc bio.Scoring, local bool) (*Matrix, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	m, n := s.Len(), t.Len()
	cells := (m + 1) * (n + 1)
	if int64(m+1)*int64(n+1) > maxFullCells {
		return nil, fmt.Errorf("align: full matrix %dx%d exceeds the %d-cell limit; use the linear-space algorithms", m+1, n+1, maxFullCells)
	}
	a := &Matrix{
		S: s, T: t, Scoring: sc, Local: local,
		rows: m + 1, cols: n + 1,
		score:  make([]int32, cells),
		arrows: make([]byte, cells),
	}
	if !local {
		for i := 1; i <= m; i++ {
			a.score[i*a.cols] = int32(i * sc.Gap)
			a.arrows[i*a.cols] = ArrowNorth
		}
		for j := 1; j <= n; j++ {
			a.score[j] = int32(j * sc.Gap)
			a.arrows[j] = ArrowWest
		}
	}
	prof := bio.NewProfile(t, sc)
	gap := int32(sc.Gap)
	for i := 1; i <= m; i++ {
		row := i * a.cols
		prev := row - a.cols
		sub := prof.Row(s[i-1])
		for j := 1; j <= n; j++ {
			diag := a.score[prev+j-1] + sub[j-1]
			west := a.score[row+j-1] + gap
			north := a.score[prev+j] + gap
			best := bio.Max32(diag, bio.Max32(west, north))
			var arrows byte
			if local && best <= 0 {
				best = 0
				// A zero cell keeps no arrows: traceback stops here (§2.2).
			} else {
				if diag == best {
					arrows |= ArrowDiag
				}
				if west == best {
					arrows |= ArrowWest
				}
				if north == best {
					arrows |= ArrowNorth
				}
			}
			a.score[row+j] = best
			a.arrows[row+j] = arrows
		}
	}
	return a, nil
}

// Score returns A[i][j] (0-based on the extended matrix: Score(0,0) is the
// empty-prefix corner).
func (a *Matrix) Score(i, j int) int { return int(a.score[i*a.cols+j]) }

// Dims returns the extended-matrix dimensions (|s|+1, |t|+1).
func (a *Matrix) Dims() (rows, cols int) { return a.rows, a.cols }

// MaxCell returns the coordinates and value of the maximum entry; for the
// local matrix this is the best local-alignment score (sim(s,t)).
func (a *Matrix) MaxCell() (i, j, score int) {
	best := int32(-1 << 30)
	for ii := 0; ii < a.rows; ii++ {
		row := ii * a.cols
		for jj := 0; jj < a.cols; jj++ {
			if a.score[row+jj] > best {
				best = a.score[row+jj]
				i, j = ii, jj
			}
		}
	}
	return i, j, int(best)
}

// Traceback builds the alignment ending at cell (i, j), following arrows
// until a cell with no arrow (zero cell for local; the origin corner for
// global). When several arrows are present the preference is
// diagonal, then west, then north, which keeps results deterministic.
func (a *Matrix) Traceback(i, j int) *Alignment {
	var rev []Op
	endI, endJ := i, j
	for {
		arrows := a.arrows[i*a.cols+j]
		if arrows == 0 {
			break
		}
		switch {
		case arrows&ArrowDiag != 0:
			if bio.Matches(a.S[i-1], a.T[j-1]) {
				rev = append(rev, OpMatch)
			} else {
				rev = append(rev, OpMismatch)
			}
			i--
			j--
		case arrows&ArrowWest != 0:
			rev = append(rev, OpGapS)
			j--
		default:
			rev = append(rev, OpGapT)
			i--
		}
	}
	ops := make([]Op, len(rev))
	for k, op := range rev {
		ops[len(rev)-1-k] = op
	}
	return &Alignment{
		SBegin: i + 1, SEnd: endI,
		TBegin: j + 1, TEnd: endJ,
		Score: a.Score(endI, endJ) - a.Score(i, j),
		Ops:   ops,
	}
}

// BestLocal computes the full matrix and returns one optimal local
// alignment (the traceback from the maximum cell).
func BestLocal(s, t bio.Sequence, sc bio.Scoring) (*Alignment, error) {
	m, err := NewSWMatrix(s, t, sc)
	if err != nil {
		return nil, err
	}
	i, j, _ := m.MaxCell()
	return m.Traceback(i, j), nil
}

// LocalsAbove returns non-overlapping local alignments with score of at
// least minScore, best first. Cells are visited in decreasing score order;
// a traceback is kept only if it does not overlap (in either sequence) a
// previously kept alignment. This mirrors how the tools of §4.4 report
// multiple similar regions.
func LocalsAbove(s, t bio.Sequence, sc bio.Scoring, minScore int) ([]*Alignment, error) {
	if minScore < 1 {
		return nil, fmt.Errorf("align: minScore must be >= 1, got %d", minScore)
	}
	m, err := NewSWMatrix(s, t, sc)
	if err != nil {
		return nil, err
	}
	type cand struct{ i, j, score int }
	var cands []cand
	for i := 1; i < m.rows; i++ {
		row := i * m.cols
		for j := 1; j < m.cols; j++ {
			if int(m.score[row+j]) >= minScore {
				cands = append(cands, cand{i, j, int(m.score[row+j])})
			}
		}
	}
	sort.Slice(cands, func(x, y int) bool {
		if cands[x].score != cands[y].score {
			return cands[x].score > cands[y].score
		}
		if cands[x].i != cands[y].i {
			return cands[x].i < cands[y].i
		}
		return cands[x].j < cands[y].j
	})
	var out []*Alignment
	for _, c := range cands {
		al := m.Traceback(c.i, c.j)
		overlap := false
		for _, kept := range out {
			if al.SBegin <= kept.SEnd && kept.SBegin <= al.SEnd &&
				al.TBegin <= kept.TEnd && kept.TBegin <= al.TEnd {
				overlap = true
				break
			}
		}
		if !overlap {
			out = append(out, al)
		}
	}
	return out, nil
}
