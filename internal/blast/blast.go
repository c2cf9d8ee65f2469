// Package blast is a from-scratch BlastN-style heuristic local aligner,
// standing in for NCBI BlastN in the paper's Table 2 comparison. It runs
// the classic seed-and-extend pipeline: exact word seeding over a hashed
// query index, diagonal-deduplicated ungapped X-drop extension, and a
// gapped refinement pass (full Smith–Waterman over a small window around
// each high-scoring segment pair).
//
// Like the real tool, it is a heuristic: its alignments are expected to be
// near — but not exactly equal to — the exact Smith–Waterman coordinates,
// which is precisely the effect Table 2 reports.
package blast

import (
	"fmt"
	"sort"

	"genomedsm/internal/align"
	"genomedsm/internal/bio"
)

// Options tunes the pipeline.
type Options struct {
	// WordSize is the seed length (BlastN default 11).
	WordSize int
	// XDrop stops ungapped extension when the running score falls this
	// far below the best seen.
	XDrop int
	// MinScore discards HSPs (after gapped refinement) below this score.
	MinScore int
	// Margin is the window padding around an HSP for gapped refinement.
	Margin int
	// MaxHits caps the number of reported alignments (0 = unlimited).
	MaxHits int
}

// DefaultOptions mirrors common BlastN settings under the +1/−1/−2 scheme.
func DefaultOptions() Options {
	return Options{WordSize: 11, XDrop: 20, MinScore: 28, Margin: 48}
}

// Validate rejects unusable options.
func (o Options) Validate() error {
	if o.WordSize < 4 || o.WordSize > 15 {
		return fmt.Errorf("blast: word size %d outside [4,15]", o.WordSize)
	}
	if o.XDrop < 1 || o.MinScore < 1 || o.Margin < 0 || o.MaxHits < 0 {
		return fmt.Errorf("blast: invalid options %+v", o)
	}
	return nil
}

// baseCode maps a base to 2 bits; ok is false for N.
func baseCode(b byte) (uint32, bool) {
	switch b {
	case 'A':
		return 0, true
	case 'C':
		return 1, true
	case 'G':
		return 2, true
	case 'T':
		return 3, true
	}
	return 0, false
}

// index hashes every valid word of s to its (0-based) start positions.
func index(s bio.Sequence, w int) map[uint32][]int32 {
	idx := make(map[uint32][]int32)
	if s.Len() < w {
		return idx
	}
	mask := uint32(1)<<(2*uint(w)) - 1
	var word uint32
	valid := 0
	for i := 0; i < s.Len(); i++ {
		code, ok := baseCode(s[i])
		if !ok {
			valid = 0
			word = 0
			continue
		}
		word = (word<<2 | code) & mask
		valid++
		if valid >= w {
			start := int32(i - w + 1)
			idx[word] = append(idx[word], start)
		}
	}
	return idx
}

// hsp is an ungapped high-scoring segment pair (0-based half-open ranges).
type hsp struct {
	s0, s1 int // s[s0:s1]
	t0, t1 int // t[t0:t1]
	score  int
}

// extend grows a seed match at (si, ti) of length w into an ungapped HSP
// with X-drop termination.
func extend(s, t bio.Sequence, sc bio.Scoring, si, ti, w, xdrop int) hsp {
	score := 0
	for k := 0; k < w; k++ {
		score += sc.Pair(s[si+k], t[ti+k])
	}
	best := score
	// Right extension.
	bestS1, bestT1 := si+w, ti+w
	cs, i, j := score, si+w, ti+w
	for i < s.Len() && j < t.Len() {
		cs += sc.Pair(s[i], t[j])
		i++
		j++
		if cs > best {
			best, bestS1, bestT1 = cs, i, j
		}
		if cs <= best-xdrop {
			break
		}
	}
	// Left extension.
	bestS0, bestT0 := si, ti
	cs, i, j = best, si, ti
	for i > 0 && j > 0 {
		i--
		j--
		cs += sc.Pair(s[i], t[j])
		if cs > best {
			best, bestS0, bestT0 = cs, i, j
		}
		if cs <= best-xdrop {
			break
		}
	}
	return hsp{s0: bestS0, s1: bestS1, t0: bestT0, t1: bestT1, score: best}
}

// Search reports gapped local alignments of s against t, best first.
func Search(s, t bio.Sequence, sc bio.Scoring, opt Options) ([]*align.Alignment, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	w := opt.WordSize
	if s.Len() < w || t.Len() < w {
		return nil, nil
	}
	idx := index(s, w)

	// Seed scan over t with per-diagonal extension skipping: if a
	// previous extension on the same diagonal already covered this t
	// position, the seed is inside a known HSP.
	covered := make(map[int]int) // diagonal (t0-s0) → t index covered up to
	var hsps []hsp
	mask := uint32(1)<<(2*uint(w)) - 1
	var word uint32
	valid := 0
	ungappedMin := opt.MinScore * 2 / 3
	for j := 0; j < t.Len(); j++ {
		code, ok := baseCode(t[j])
		if !ok {
			valid, word = 0, 0
			continue
		}
		word = (word<<2 | code) & mask
		valid++
		if valid < w {
			continue
		}
		tStart := j - w + 1
		for _, sp := range idx[word] {
			si := int(sp)
			diag := tStart - si
			if covered[diag] >= tStart+w {
				continue
			}
			h := extend(s, t, sc, si, tStart, w, opt.XDrop)
			covered[diag] = h.t1
			if h.score >= ungappedMin {
				hsps = append(hsps, h)
			}
		}
	}

	// Gapped refinement: exact local alignment inside a padded window.
	var out []*align.Alignment
	for _, h := range hsps {
		s0 := maxInt(0, h.s0-opt.Margin)
		s1 := minInt(s.Len(), h.s1+opt.Margin)
		t0 := maxInt(0, h.t0-opt.Margin)
		t1 := minInt(t.Len(), h.t1+opt.Margin)
		al, err := align.BestLocal(s[s0:s1], t[t0:t1], sc)
		if err != nil {
			return nil, err
		}
		if al.Score < opt.MinScore {
			continue
		}
		al.SBegin += s0
		al.SEnd += s0
		al.TBegin += t0
		al.TEnd += t0
		out = append(out, al)
	}

	// Sort best-first and drop alignments overlapping a better one.
	sort.Slice(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		if out[a].SBegin != out[b].SBegin {
			return out[a].SBegin < out[b].SBegin
		}
		return out[a].TBegin < out[b].TBegin
	})
	var kept []*align.Alignment
	for _, al := range out {
		dup := false
		for _, k := range kept {
			if al.SBegin <= k.SEnd && k.SBegin <= al.SEnd && al.TBegin <= k.TEnd && k.TBegin <= al.TEnd {
				dup = true
				break
			}
		}
		if !dup {
			kept = append(kept, al)
			if opt.MaxHits > 0 && len(kept) >= opt.MaxHits {
				break
			}
		}
	}
	return kept, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
