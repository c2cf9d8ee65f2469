// Command genomedsm compares two DNA sequences with the paper's parallel
// Smith–Waterman strategies on a simulated DSM cluster, printing the
// similar regions, optional phase-2 global alignments, and the simulated
// execution-time breakdown.
//
// Usage:
//
//	genomedsm -n 20000 -procs 8 -strategy block -phase2
//	genomedsm -s a.fa -t b.fa -strategy preprocess -procs 4
//
// The search subcommand instead scans a whole sequence database with
// the SWAR-vectorized multicore kernels and reports the top-K hits:
//
//	genomedsm search -q query.fa -db db.fa -k 10
//	genomedsm search -n 2000 -db-size 500 -json
//
// The chaos subcommand runs the seeded fault-injection and schedule
// sweep, checking every strategy bit-for-bit against the sequential
// baseline and replaying any failing interleaving from its plan seed:
//
//	genomedsm chaos -seed 7 -schedules 8
//	genomedsm chaos -strategy phase2 -seed 7 -replay 1234567
//
// The index and serve subcommands make the database search resident:
// index packs a database (records, scan order, lane-group layout)
// into one validated file, and serve loads it behind an HTTP/JSON API
// with shared-scan batching, admission control and graceful drain:
//
//	genomedsm index -db db.fa -o db.pack
//	genomedsm serve -pack db.pack -addr 127.0.0.1:7878
//	curl -d '{"query":"ACGTACGT...","top_k":5}' http://127.0.0.1:7878/search
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"genomedsm"
	"genomedsm/internal/cluster"
	"genomedsm/internal/stats"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "search" {
		if err := searchCmd(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "genomedsm search:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "chaos" {
		if err := chaosCmd(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "genomedsm chaos:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "index" {
		if err := indexCmd(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "genomedsm index:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := serveCmd(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "genomedsm serve:", err)
			os.Exit(1)
		}
		return
	}
	var (
		strategy = flag.String("strategy", "block", "strategy: heuristic | block | preprocess")
		procs    = flag.Int("procs", 8, "number of simulated cluster nodes")
		n        = flag.Int("n", 10000, "synthetic sequence length (when no FASTA given)")
		seed     = flag.Int64("seed", 42, "synthetic generator seed")
		sFile    = flag.String("s", "", "FASTA file for sequence s")
		tFile    = flag.String("t", "", "FASTA file for sequence t")
		open     = flag.Int("open", 10, "heuristic open parameter")
		closeP   = flag.Int("close", 10, "heuristic close parameter")
		minScore = flag.Int("minscore", 30, "candidate score threshold")
		multA    = flag.Int("multa", 5, "blocking multiplier a (blocks = a*procs)")
		multB    = flag.Int("multb", 5, "blocking multiplier b (bands = b*procs)")
		phase2F  = flag.Bool("phase2", false, "retrieve alignments with distributed global alignment")
		maxShow  = flag.Int("show", 10, "max regions/alignments to print")
		jsonOut  = flag.Bool("json", false, "emit a machine-readable JSON report instead of text")
	)
	flag.Parse()
	var err error
	if *jsonOut {
		err = runJSON(os.Stdout, *strategy, *procs, *n, *seed, *sFile, *tFile,
			*open, *closeP, *minScore, *multA, *multB, *phase2F)
	} else {
		err = run(*strategy, *procs, *n, *seed, *sFile, *tFile, *open, *closeP, *minScore,
			*multA, *multB, *phase2F, *maxShow)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "genomedsm:", err)
		os.Exit(1)
	}
}

// jsonReport is the machine-readable CLI output.
type jsonReport struct {
	Strategy   string             `json:"strategy"`
	Processors int                `json:"processors"`
	SLen       int                `json:"s_len"`
	TLen       int                `json:"t_len"`
	Phase1Time float64            `json:"phase1_seconds"`
	Phase2Time float64            `json:"phase2_seconds,omitempty"`
	Regions    []jsonRegion       `json:"regions,omitempty"`
	Preprocess *jsonPreprocess    `json:"preprocess,omitempty"`
	Breakdown  map[string]float64 `json:"breakdown_seconds"`
}

type jsonRegion struct {
	SBegin int `json:"s_begin"`
	SEnd   int `json:"s_end"`
	TBegin int `json:"t_begin"`
	TEnd   int `json:"t_end"`
	Score  int `json:"score"`
	// AlignmentScore is the phase-2 exact global score when phase 2 ran.
	AlignmentScore *int `json:"alignment_score,omitempty"`
}

type jsonPreprocess struct {
	BestScore int   `json:"best_score"`
	BestI     int   `json:"best_i"`
	BestJ     int   `json:"best_j"`
	TotalHits int64 `json:"total_hits"`
	Bands     int   `json:"bands"`
	Groups    int   `json:"groups"`
}

func runJSON(w io.Writer, strategy string, procs, n int, seed int64, sFile, tFile string,
	open, closeP, minScore, multA, multB int, phase2F bool) error {
	s, t, err := loadOrGenerate(sFile, tFile, n, seed)
	if err != nil {
		return err
	}
	rep, err := compare(strategy, procs, s, t, open, closeP, minScore, multA, multB, phase2F)
	if err != nil {
		return err
	}
	out := jsonReport{
		Strategy:   rep.Strategy.String(),
		Processors: rep.Processors,
		SLen:       s.Len(),
		TLen:       t.Len(),
		Phase1Time: rep.Phase1Time,
		Phase2Time: rep.Phase2Time,
		Breakdown:  map[string]float64{},
	}
	merged := cluster.Merge(rep.Breakdowns)
	for cat := cluster.Compute; cat <= cluster.Recovery; cat++ {
		if v := merged.Cat[cat]; v > 0 {
			out.Breakdown[cat.String()] = v
		}
	}
	for i, c := range rep.Candidates {
		jr := jsonRegion{SBegin: c.SBegin, SEnd: c.SEnd, TBegin: c.TBegin, TEnd: c.TEnd, Score: c.Score}
		if i < len(rep.Alignments) && rep.Alignments[i] != nil {
			score := rep.Alignments[i].Score
			jr.AlignmentScore = &score
		}
		out.Regions = append(out.Regions, jr)
	}
	if pp := rep.Preprocess; pp != nil {
		out.Preprocess = &jsonPreprocess{
			BestScore: pp.BestScore, BestI: pp.BestI, BestJ: pp.BestJ,
			TotalHits: pp.TotalHits, Bands: len(pp.ResultMatrix),
		}
		if len(pp.ResultMatrix) > 0 {
			out.Preprocess.Groups = len(pp.ResultMatrix[0])
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// compare builds the Options for the named strategy and runs Compare.
func compare(strategy string, procs int, s, t genomedsm.Sequence,
	open, closeP, minScore, multA, multB int, phase2F bool) (*genomedsm.Report, error) {
	opts := genomedsm.Options{
		Processors: procs,
		Heuristics: &genomedsm.HeuristicParams{Open: open, Close: closeP, MinScore: minScore},
		Phase2:     phase2F,
	}
	switch strategy {
	case "heuristic":
		opts.Strategy = genomedsm.StrategyHeuristic
	case "block":
		opts.Strategy = genomedsm.StrategyHeuristicBlock
		bc := genomedsm.MultiplierConfig(multA, multB, procs)
		opts.Blocking = &bc
	case "preprocess":
		opts.Strategy = genomedsm.StrategyPreprocess
	default:
		return nil, fmt.Errorf("unknown strategy %q (want heuristic|block|preprocess)", strategy)
	}
	return genomedsm.Compare(s, t, opts)
}

func loadOrGenerate(sFile, tFile string, n int, seed int64) (genomedsm.Sequence, genomedsm.Sequence, error) {
	if sFile != "" && tFile != "" {
		sr, err := genomedsm.ReadFASTAFile(sFile)
		if err != nil {
			return nil, nil, err
		}
		tr, err := genomedsm.ReadFASTAFile(tFile)
		if err != nil {
			return nil, nil, err
		}
		if len(sr) == 0 || len(tr) == 0 {
			return nil, nil, fmt.Errorf("empty FASTA input")
		}
		return sr[0].Seq, tr[0].Seq, nil
	}
	g := genomedsm.NewGenerator(seed)
	pair, err := g.HomologousPair(n, genomedsm.DefaultHomologyModel(n))
	if err != nil {
		return nil, nil, err
	}
	return pair.S, pair.T, nil
}

func run(strategy string, procs, n int, seed int64, sFile, tFile string,
	open, closeP, minScore, multA, multB int, phase2F bool, maxShow int) error {
	s, t, err := loadOrGenerate(sFile, tFile, n, seed)
	if err != nil {
		return err
	}
	fmt.Printf("comparing |s|=%d against |t|=%d on %d simulated nodes (%s strategy)\n",
		s.Len(), t.Len(), procs, strategy)

	rep, err := compare(strategy, procs, s, t, open, closeP, minScore, multA, multB, phase2F)
	if err != nil {
		return err
	}

	if rep.Preprocess != nil {
		pp := rep.Preprocess
		fmt.Printf("\nexact best score %d at (%d,%d); %s hits over threshold\n",
			pp.BestScore, pp.BestI, pp.BestJ, stats.FormatCount(pp.TotalHits))
		fmt.Printf("core time %s, term time %s (simulated)\n",
			stats.FormatSeconds(pp.CoreTime), stats.FormatSeconds(pp.TermTime))
		blocks := 0
		for _, row := range pp.ResultMatrix {
			for _, v := range row {
				if v > 0 {
					blocks++
				}
			}
		}
		fmt.Printf("result matrix: %d bands × %d groups, %d non-empty blocks\n",
			len(pp.ResultMatrix), len(pp.ResultMatrix[0]), blocks)
	} else {
		fmt.Printf("\n%d similar regions (queue sorted by size):\n", len(rep.Candidates))
		tbl := stats.NewTable("", "#", "s begin..end", "t begin..end", "score")
		for i, c := range rep.Candidates {
			if i >= maxShow {
				tbl.AddRowRaw("…", "", "", "")
				break
			}
			tbl.AddRowRaw(fmt.Sprintf("%d", i+1),
				fmt.Sprintf("%d..%d", c.SBegin, c.SEnd),
				fmt.Sprintf("%d..%d", c.TBegin, c.TEnd),
				fmt.Sprintf("%d", c.Score))
		}
		fmt.Print(tbl.Render())
	}

	if len(rep.Alignments) > 0 {
		fmt.Printf("\nphase-2 global alignments (showing up to %d):\n", maxShow)
		for i, al := range rep.Alignments {
			if i >= maxShow {
				break
			}
			fmt.Println(al.RenderReport(s, t, 64))
		}
		fmt.Printf("phase-2 simulated time: %s\n", stats.FormatSeconds(rep.Phase2Time))
	}

	fmt.Printf("\nsimulated phase-1 time: %s\n", stats.FormatSeconds(rep.Phase1Time))
	merged := cluster.Merge(rep.Breakdowns)
	fmt.Printf("breakdown: %s\n", merged)
	fmt.Printf("dsm: %s\n", rep.Stats)
	return nil
}
