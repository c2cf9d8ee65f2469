// Package genomedsm is the public API of the GenomeDSM library: a
// reproduction of "Parallel Strategies for Local Biological Sequence
// Alignment in a Cluster of Workstations" (Boukerche, de Melo,
// Ayala-Rincón, Walter). It compares long DNA sequences with the
// Smith–Waterman algorithm parallelized over a simulated cluster of
// workstations running a JIAJIA-style software DSM, using the paper's
// three strategies, and retrieves the actual alignments of the similar
// regions with distributed Needleman–Wunsch (phase 2).
//
// Quick start:
//
//	pair, _ := genomedsm.NewGenerator(42).HomologousPair(10000, genomedsm.DefaultHomologyModel(10000))
//	rep, err := genomedsm.Compare(pair.S, pair.T, genomedsm.Options{
//		Strategy:   genomedsm.StrategyHeuristicBlock,
//		Processors: 8,
//		Phase2:     true,
//	})
//
// The heavy lifting lives in the internal packages (align, heuristics,
// dsm, cluster, wavefront, preprocess, phase2, blast); this package wires
// them into the paper's end-to-end pipeline.
package genomedsm

import (
	"context"
	"fmt"

	"genomedsm/internal/align"
	"genomedsm/internal/bio"
	"genomedsm/internal/cluster"
	"genomedsm/internal/dsm"
	"genomedsm/internal/heuristics"
	"genomedsm/internal/phase2"
	"genomedsm/internal/preprocess"
	"genomedsm/internal/search"
	"genomedsm/internal/wavefront"
)

// Re-exported substrate types, so callers need only this package for the
// common paths.
type (
	// Sequence is a DNA sequence.
	Sequence = bio.Sequence
	// Scoring is the column scoring scheme (+1/−1/−2 by default).
	Scoring = bio.Scoring
	// Alignment is a concrete alignment with coordinates and operations.
	Alignment = align.Alignment
	// Candidate is one similar region found by phase 1.
	Candidate = heuristics.Candidate
	// HeuristicParams are the §4.1 open/close/threshold parameters.
	HeuristicParams = heuristics.Params
	// BlockConfig is strategy 2's bands×blocks decomposition.
	BlockConfig = wavefront.BlockConfig
	// PreprocessConfig is strategy 3's parameter set.
	PreprocessConfig = preprocess.Config
	// PreprocessResult is strategy 3's scoreboard outcome.
	PreprocessResult = preprocess.Result
	// ClusterConfig is the virtual-time cost model.
	ClusterConfig = cluster.Config
	// Breakdown is a virtual-time accounting split (Fig. 10).
	Breakdown = cluster.Breakdown
	// DSMStats are coherence-protocol counters.
	DSMStats = dsm.Stats
	// Generator produces reproducible synthetic DNA.
	Generator = bio.Generator
	// HomologyModel controls planted-region generation.
	HomologyModel = bio.HomologyModel
	// MutationModel controls synthetic divergence.
	MutationModel = bio.MutationModel
	// Record is one FASTA database record (ID + sequence).
	Record = bio.Record
	// SearchOptions configures a database scan (Search).
	SearchOptions = search.Options
	// SearchHit is one top-K hit of a database scan.
	SearchHit = search.Hit
	// SearchResult is the outcome of a database scan.
	SearchResult = search.Result
	// SearchPruneStats reports what the exact pruning pipeline did
	// during a scan (SearchOptions.Prune); see search.PruneStats.
	SearchPruneStats = search.PruneStats
)

// Re-exported constructors and helpers.
var (
	// NewSequence validates a string into a Sequence.
	NewSequence = bio.NewSequence
	// NewGenerator returns a seeded synthetic-DNA generator.
	NewGenerator = bio.NewGenerator
	// DefaultScoring is the paper's +1/−1/−2 scheme.
	DefaultScoring = bio.DefaultScoring
	// DefaultHomologyModel scales the paper's similar-region density.
	DefaultHomologyModel = bio.DefaultHomologyModel
	// DefaultMutationModel is the default synthetic-divergence model.
	DefaultMutationModel = bio.DefaultMutationModel
	// ReadFASTAFile loads sequences from a FASTA file.
	ReadFASTAFile = bio.ReadFASTAFile
	// Calibrated2005 is the cost model of the paper's testbed.
	Calibrated2005 = cluster.Calibrated2005
	// MultiplierConfig converts the paper's blocking-multiplier notation.
	MultiplierConfig = wavefront.MultiplierConfig
)

// Strategy selects one of the paper's three parallel strategies.
type Strategy int

// The strategies, in the paper's order.
const (
	// StrategyHeuristic is §4.2: linear-space heuristic scan, per-cell
	// border handoff (no blocking factors).
	StrategyHeuristic Strategy = iota
	// StrategyHeuristicBlock is §4.3: the same scan with bands × blocks
	// blocking factors.
	StrategyHeuristicBlock
	// StrategyPreprocess is §5: the exact recurrence with a hit
	// scoreboard and optional column saving (no candidate queue).
	StrategyPreprocess
)

func (s Strategy) String() string {
	switch s {
	case StrategyHeuristic:
		return "heuristic"
	case StrategyHeuristicBlock:
		return "heuristic-block"
	case StrategyPreprocess:
		return "pre-process"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Options configures Compare. The zero value plus Processors is usable:
// it runs the blocked heuristic strategy with the paper's defaults.
type Options struct {
	Strategy   Strategy
	Processors int
	// Scoring defaults to +1/−1/−2.
	Scoring *Scoring
	// Heuristics defaults to heuristics.DefaultParams (strategies 1–2).
	Heuristics *HeuristicParams
	// Blocking defaults to the paper's favourite 5×5 multiplier
	// (strategy 2 only).
	Blocking *BlockConfig
	// Preprocess defaults to preprocess.DefaultConfig (strategy 3 only).
	Preprocess *PreprocessConfig
	// Cluster defaults to the calibrated 2005 testbed model.
	Cluster *ClusterConfig
	// Phase2 additionally runs the distributed global alignment over the
	// found regions (strategies 1–2).
	Phase2 bool
	// Phase2LinearSpace, when positive, makes phase 2 switch regions whose
	// full matrix would exceed this many cells to Hirschberg's linear-
	// space algorithm (double time, linear memory — §6's reference [9]).
	Phase2LinearSpace int
}

// Report is the outcome of Compare.
type Report struct {
	Strategy   Strategy
	Processors int
	// Candidates are the phase-1 similar regions (strategies 1–2).
	Candidates []Candidate
	// Alignments are the phase-2 global alignments (when Phase2 was set),
	// index-aligned with Candidates.
	Alignments []*Alignment
	// Preprocess carries strategy 3's result matrix and I/O metrics.
	Preprocess *PreprocessResult
	// Phase1Time and Phase2Time are simulated parallel times (seconds on
	// the modelled cluster).
	Phase1Time float64
	Phase2Time float64
	// Breakdowns per node (phase 1), and aggregate DSM statistics.
	Breakdowns []Breakdown
	Stats      DSMStats
}

func (o *Options) fill() (Options, error) {
	out := *o
	if out.Processors == 0 {
		out.Processors = 1
	}
	if out.Processors < 1 {
		return out, fmt.Errorf("genomedsm: processors %d", out.Processors)
	}
	if out.Scoring == nil {
		s := bio.DefaultScoring()
		out.Scoring = &s
	}
	if out.Heuristics == nil {
		h := heuristics.DefaultParams()
		out.Heuristics = &h
	}
	if out.Blocking == nil {
		b := wavefront.MultiplierConfig(5, 5, out.Processors)
		out.Blocking = &b
	}
	if out.Preprocess == nil {
		p := preprocess.DefaultConfig()
		out.Preprocess = &p
	}
	if out.Cluster == nil {
		c := cluster.Calibrated2005()
		out.Cluster = &c
	}
	return out, nil
}

// Compare runs the selected strategy over s and t on the simulated
// cluster and, optionally, phase 2.
func Compare(s, t Sequence, opts Options) (*Report, error) {
	o, err := opts.fill()
	if err != nil {
		return nil, err
	}
	rep := &Report{Strategy: o.Strategy, Processors: o.Processors}
	switch o.Strategy {
	case StrategyHeuristic, StrategyHeuristicBlock:
		var res *wavefront.Result
		if o.Strategy == StrategyHeuristic {
			res, err = wavefront.RunNoBlock(o.Processors, *o.Cluster, s, t, *o.Scoring, *o.Heuristics)
		} else {
			bc := *o.Blocking
			// Clamp the decomposition to the matrix when the caller kept
			// defaults on small inputs.
			if bc.Bands > s.Len() {
				bc.Bands = s.Len()
			}
			if bc.Blocks > t.Len() {
				bc.Blocks = t.Len()
			}
			res, err = wavefront.RunBlocked(o.Processors, *o.Cluster, s, t, *o.Scoring, *o.Heuristics, bc)
		}
		if err != nil {
			return nil, err
		}
		rep.Candidates = res.Candidates
		rep.Phase1Time = res.Makespan
		rep.Breakdowns = res.Breakdowns
		rep.Stats = res.Stats
		if o.Phase2 && len(res.Candidates) > 0 {
			p2, err := phase2.RunWithOptions(o.Processors, *o.Cluster, s, t, *o.Scoring,
				phase2.JobsFromCandidates(res.Candidates),
				phase2.RunOptions{LinearSpaceThreshold: o.Phase2LinearSpace})
			if err != nil {
				return nil, err
			}
			rep.Alignments = p2.Alignments
			rep.Phase2Time = p2.Makespan
		}
	case StrategyPreprocess:
		res, err := preprocess.Run(o.Processors, *o.Cluster, s, t, *o.Scoring, *o.Preprocess, &preprocess.DiscardSink{})
		if err != nil {
			return nil, err
		}
		rep.Preprocess = res
		rep.Phase1Time = res.Makespan
		rep.Breakdowns = res.Breakdowns
		rep.Stats = res.Stats
	default:
		return nil, fmt.Errorf("genomedsm: unknown strategy %d", o.Strategy)
	}
	return rep, nil
}

// ColumnSink receives the columns saved by the pre-process strategy.
type ColumnSink = preprocess.ColumnSink

// NewDirSink returns a ColumnSink writing binary column files under dir.
var NewDirSink = preprocess.NewDirSink

// Preprocess runs strategy 3 with a caller-provided sink for the saved
// columns (Compare uses a counting sink; use this entry point to actually
// keep the data, as the paper does for later re-processing).
func Preprocess(s, t Sequence, opts Options, sink ColumnSink) (*PreprocessResult, error) {
	o, err := opts.fill()
	if err != nil {
		return nil, err
	}
	return preprocess.Run(o.Processors, *o.Cluster, s, t, *o.Scoring, *o.Preprocess, sink)
}

// Search scans a sequence database for the best local alignments of q:
// records are scored by the inter-sequence SWAR kernels (8 int8 lanes
// per machine word, widening per lane on overflow) over a worker pool
// of host cores, and the top-K hits come back with exact scores and
// alignment spans. Unlike Compare, which models the paper's 2005
// cluster in virtual time, Search uses the real hardware for
// throughput — the database-search workload of DSA and SWAPHI.
func Search(q Sequence, db []Record, opt SearchOptions) (*SearchResult, error) {
	return search.Run(q, db, opt)
}

// SearchDB is a prepared database: records plus the derived scan state
// (canonical order, lane-group layout) built once and reused across
// queries. Build with NewSearchDB, or load a pre-packed one with
// internal/dbpack via `genomedsm index`/`serve`.
type SearchDB = search.DB

// NewSearchDB prepares a database for repeated scans.
func NewSearchDB(recs []Record) *SearchDB { return search.NewDB(recs) }

// SearchPrepared is Search over a prepared database with a context:
// cancelling ctx aborts the scan at the next lane-group boundary.
// Results are bit-identical to Search with the same options.
func SearchPrepared(ctx context.Context, q Sequence, db *SearchDB, opt SearchOptions) (*SearchResult, error) {
	return search.RunCtx(ctx, q, db, opt)
}

// AffineScoring is the affine gap-penalty scheme for BestLocalAffine.
type AffineScoring = align.AffineScoring

// BestLocalAffine computes one optimal local alignment under affine gap
// penalties (Gotoh's algorithm) — a library extension beyond the paper's
// linear scheme.
func BestLocalAffine(s, t Sequence, sc AffineScoring) (*Alignment, error) {
	return align.BestLocalAffine(s, t, sc)
}

// RetrieveFromBlock re-processes one interesting result-matrix block of a
// pre-process run from its saved data and retrieves the alignments it
// contains (the §5 "later processing"). The store is the sink used during
// the run (MemSink or DirSink).
func RetrieveFromBlock(s, t Sequence, sc Scoring, res *PreprocessResult, store preprocess.Store, band, group int, cfg PreprocessConfig) ([]*Alignment, error) {
	return preprocess.RetrieveFromBlock(s, t, sc, res, store, band, group, cfg)
}

// BestLocalAlignment computes one exact optimal local alignment in linear
// space using the paper's Section 6 method (scan + retrieval over the
// reverses) — the exact counterpart to the heuristic pipeline.
func BestLocalAlignment(s, t Sequence, sc Scoring) (*Alignment, error) {
	al, _, err := align.BestLocalLinear(s, t, sc)
	return al, err
}

// GlobalAlignment computes the optimal global alignment (Needleman–
// Wunsch, §2.3) of two sequences.
func GlobalAlignment(s, t Sequence, sc Scoring) (*Alignment, error) {
	return align.Global(s, t, sc)
}
