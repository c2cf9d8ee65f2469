package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"time"

	"genomedsm"
	"genomedsm/internal/dispatch"
	"genomedsm/internal/shard"
	"genomedsm/internal/stats"
)

// searchCmd implements `genomedsm search`: a multicore Smith–Waterman
// database scan powered by the inter-sequence SWAR kernels. Inputs come
// from FASTA files or a reproducible synthetic database with planted
// homologs of the query, so the subcommand demos end to end without any
// data on disk.
func searchCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("genomedsm search", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		qFile    = fs.String("q", "", "query FASTA file (first record; synthetic when empty)")
		dbFile   = fs.String("db", "", "database FASTA file (synthetic when empty)")
		packFile = fs.String("pack", "", "pre-packed database from `genomedsm index` (overrides -db)")
		n        = fs.Int("n", 1000, "synthetic query length")
		dbSize   = fs.Int("db-size", 200, "synthetic database record count")
		dbLen    = fs.Int("db-len", 1000, "synthetic database base record length")
		seed     = fs.Int64("seed", 42, "synthetic generator seed")
		k        = fs.Int("k", 10, "number of hits to report")
		workers  = fs.Int("workers", 0, "worker-pool size (0 = all host cores)")
		minScore = fs.Int("minscore", 0, "drop hits scoring below this")
		match    = fs.Int("match", 1, "match reward")
		mismatch = fs.Int("mismatch", -1, "mismatch penalty (negative)")
		gap      = fs.Int("gap", -2, "gap penalty (negative)")
		disp     = fs.String("dispatch", "auto", "kernel routing: auto (every lane group starts on the int8 ladder; fixed is an alias), scalar (force the exact scalar kernels)")
		scores   = fs.Bool("scores-only", false, "skip alignment-span retrieval of the hits")
		jsonOut  = fs.Bool("json", false, "emit a machine-readable JSON report instead of text")
		prune    = fs.Bool("prune", true, "exact top-K pruning: skip and abandon records that provably cannot rank")
		plant    = fs.Int("plant-every", 8, "plant a mutated query homolog every Nth synthetic record (0 = pure noise)")
		shards   = fs.Int("shards", 0, "scatter the scan across N in-process shards with gossiped pruning floors; results stay bit-identical (0 or 1 = single-node)")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return err
	}
	mode, err := dispatch.ParseMode(*disp)
	if err != nil {
		return err
	}
	dispatch.SetActive(dispatch.New(mode, nil))
	opt := genomedsm.SearchOptions{
		Scoring:     genomedsm.Scoring{Match: *match, Mismatch: *mismatch, Gap: *gap},
		TopK:        *k,
		Workers:     *workers,
		MinScore:    *minScore,
		Dispatch:    mode.String(),
		NoEndpoints: *scores,
		Prune:       *prune,
	}
	var q genomedsm.Sequence
	var db *genomedsm.SearchDB
	if *packFile != "" {
		// Pre-packed database: the parse, sort and lane layout were
		// paid at `genomedsm index` time; the scan starts
		// cold-path-free through the same shared prepare path the server
		// uses. JSON mode keeps stdout machine-readable, so the load
		// chatter is dropped there.
		pw := io.Writer(w)
		if *jsonOut {
			pw = io.Discard
		}
		p, err := openPack(*packFile, pw)
		if err != nil {
			return err
		}
		defer p.Close()
		db = p.DB
		if q, err = loadQuery(*qFile, *n, *seed); err != nil {
			return err
		}
	} else {
		var recs []genomedsm.Record
		var err error
		if q, recs, err = loadSearchInputs(*qFile, *dbFile, *n, *dbSize, *dbLen, *seed, *plant); err != nil {
			return err
		}
		db = genomedsm.NewSearchDB(recs)
	}

	var res *genomedsm.SearchResult
	var cluster *shard.Cluster
	if *shards >= 2 {
		var err error
		if cluster, err = shard.New(db, shard.Options{Shards: *shards}); err != nil {
			return err
		}
		defer cluster.Close()
	}
	start := time.Now()
	if cluster != nil {
		res, err = cluster.Search(context.Background(), q, opt)
	} else {
		res, err = genomedsm.SearchPrepared(context.Background(), q, db, opt)
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start).Seconds()
	if *jsonOut {
		return writeSearchJSON(w, q, res, elapsed)
	}
	writeSearchText(w, q, res, elapsed, *scores)
	if cluster != nil {
		writeShardText(w, cluster.Stats())
	}
	return nil
}

// writeShardText summarizes a sharded scan: the partition each shard
// answered for plus the robustness counters (all zero on a clean run).
func writeShardText(w io.Writer, st shard.Stats) {
	fmt.Fprintf(w, "sharded across %d workers:", len(st.Shards))
	for _, h := range st.Shards {
		fmt.Fprintf(w, " %d:[%d,%d)", h.Shard, h.SpanLo, h.SpanHi)
	}
	fmt.Fprintln(w)
	if st.Retries+st.Kills+st.Reassigns > 0 {
		fmt.Fprintf(w, "recovery: %d retries, %d kills, %d dead detected, %d spans reassigned\n",
			st.Retries, st.Kills, st.DeadDetected, st.Reassigns)
	}
	if st.FloorBroadcasts > 0 {
		fmt.Fprintf(w, "floor gossip: %d evidence batches up, %d floor broadcasts down\n",
			st.GossipUpdates, st.FloorBroadcasts)
	}
}

// loadSearchInputs reads the query and database from FASTA files, or
// synthesizes whichever is missing: a random query and a database of
// noise records with mutated query fragments planted every plantEvery
// records (default every eighth), so the scan has real hits to rank;
// plantEvery ≤ 0 yields pure noise (a uniform score distribution, the
// worst case for pruning).
func loadSearchInputs(qFile, dbFile string, n, dbSize, dbLen int, seed int64, plantEvery int) (genomedsm.Sequence, []genomedsm.Record, error) {
	g := genomedsm.NewGenerator(seed)
	var q genomedsm.Sequence
	if qFile != "" {
		recs, err := genomedsm.ReadFASTAFile(qFile)
		if err != nil {
			return nil, nil, err
		}
		if len(recs) == 0 {
			return nil, nil, fmt.Errorf("query file %s holds no records", qFile)
		}
		q = recs[0].Seq
	} else {
		q = g.Random(n)
	}
	return loadSearchDB(g, q, dbFile, dbSize, dbLen, plantEvery)
}

// loadQuery loads just the query: the first record of qFile, or the
// synthetic query the shared generator would produce — the same one
// loadSearchInputs plants homologs of, so `search -pack` against a
// synthetic pack of the same seed finds the planted hits.
func loadQuery(qFile string, n int, seed int64) (genomedsm.Sequence, error) {
	if qFile != "" {
		recs, err := genomedsm.ReadFASTAFile(qFile)
		if err != nil {
			return nil, err
		}
		if len(recs) == 0 {
			return nil, fmt.Errorf("query file %s holds no records", qFile)
		}
		return recs[0].Seq, nil
	}
	return genomedsm.NewGenerator(seed).Random(n), nil
}

// loadSearchDB reads or synthesizes the database half of the inputs.
func loadSearchDB(g *genomedsm.Generator, q genomedsm.Sequence, dbFile string, dbSize, dbLen, plantEvery int) (genomedsm.Sequence, []genomedsm.Record, error) {
	if dbFile != "" {
		db, err := genomedsm.ReadFASTAFile(dbFile)
		return q, db, err
	}
	db := make([]genomedsm.Record, 0, dbSize)
	for i := 0; i < dbSize; i++ {
		if plantEvery > 0 && i%plantEvery == 3%plantEvery && len(q) >= 2 {
			half := len(q) / 2
			frag := q[(i*13)%half : half+(i*29)%(half+1)]
			db = append(db, genomedsm.Record{
				ID:  fmt.Sprintf("hom%d", i),
				Seq: g.MutatedCopy(frag, genomedsm.DefaultMutationModel()),
			})
			continue
		}
		rl := dbLen/2 + (i*37)%(dbLen+1)
		db = append(db, genomedsm.Record{ID: fmt.Sprintf("rec%d", i), Seq: g.Random(rl)})
	}
	return q, db, nil
}

// searchJSON is the machine-readable report of `genomedsm search`.
type searchJSON struct {
	QueryLen    int              `json:"query_len"`
	Records     int              `json:"records"`
	Hits        []searchJSONHit  `json:"hits"`
	Cells       int64            `json:"cells"`
	PaddedCells int64            `json:"padded_cells"`
	Seconds     float64          `json:"seconds"`
	MCellsPerS  float64          `json:"mcells_per_second"`
	Prune       *searchJSONPrune `json:"prune,omitempty"`
}

// searchJSONPrune mirrors genomedsm.SearchPruneStats. The counts are
// scheduling-dependent diagnostics (see PruneStats), so consumers must
// not expect them to be stable run to run — only the hits are.
type searchJSONPrune struct {
	Skipped    int   `json:"skipped"`
	Abandoned  int   `json:"abandoned"`
	Scanned    int   `json:"scanned"`
	CellsSaved int64 `json:"cells_saved"`
	FloorFinal int   `json:"floor_final"`
}

type searchJSONHit struct {
	Index  int    `json:"index"`
	ID     string `json:"id"`
	Score  int    `json:"score"`
	QBegin int    `json:"q_begin,omitempty"`
	QEnd   int    `json:"q_end,omitempty"`
	TBegin int    `json:"t_begin,omitempty"`
	TEnd   int    `json:"t_end,omitempty"`
}

func writeSearchJSON(w io.Writer, q genomedsm.Sequence, res *genomedsm.SearchResult, seconds float64) error {
	out := searchJSON{
		QueryLen:    q.Len(),
		Records:     res.Searched,
		Cells:       res.Cells,
		PaddedCells: res.PaddedCells,
		Seconds:     seconds,
	}
	if seconds > 0 {
		out.MCellsPerS = float64(res.Cells) / seconds / 1e6
	}
	if st := res.Prune; st != nil {
		out.Prune = &searchJSONPrune{
			Skipped: st.Skipped, Abandoned: st.Abandoned, Scanned: st.Scanned,
			CellsSaved: st.CellsSaved, FloorFinal: st.FloorFinal,
		}
	}
	for _, h := range res.Hits {
		out.Hits = append(out.Hits, searchJSONHit{
			Index: h.Index, ID: h.ID, Score: h.Score,
			QBegin: h.QBegin, QEnd: h.QEnd, TBegin: h.TBegin, TEnd: h.TEnd,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func writeSearchText(w io.Writer, q genomedsm.Sequence, res *genomedsm.SearchResult, seconds float64, scoresOnly bool) {
	fmt.Fprintf(w, "searched %d records (%.2f Mcells) with a %d-base query\n",
		res.Searched, float64(res.Cells)/1e6, q.Len())
	if len(res.Hits) == 0 {
		fmt.Fprintln(w, "no hits above the score threshold")
	} else {
		tbl := stats.NewTable("", "#", "id", "score", "query span", "target span")
		for i, h := range res.Hits {
			qSpan, tSpan := "-", "-"
			if !scoresOnly {
				qSpan = fmt.Sprintf("%d..%d", h.QBegin, h.QEnd)
				tSpan = fmt.Sprintf("%d..%d", h.TBegin, h.TEnd)
			}
			tbl.AddRowRaw(fmt.Sprintf("%d", i+1), h.ID, fmt.Sprintf("%d", h.Score), qSpan, tSpan)
		}
		fmt.Fprint(w, tbl.Render())
	}
	if st := res.Prune; st != nil {
		line := fmt.Sprintf("pruning: skipped %d, abandoned %d, scanned %d of %d records",
			st.Skipped, st.Abandoned, st.Scanned, res.Searched)
		if res.Cells > 0 {
			line += fmt.Sprintf(" — %.1f%% of cells saved", 100*float64(st.CellsSaved)/float64(res.Cells))
		}
		if st.FloorFinal > 0 {
			line += fmt.Sprintf(" (top-%d floor %d)", len(res.Hits), st.FloorFinal)
		}
		fmt.Fprintln(w, line)
	}
	line := fmt.Sprintf("scan time %.3fs", seconds)
	if seconds > 0 {
		line += fmt.Sprintf(" — %.1f Mcells/s", float64(res.Cells)/seconds/1e6)
	}
	if res.Prune == nil && res.Cells > 0 {
		line += fmt.Sprintf(" (lane padding overhead %.1f%%)",
			100*float64(res.PaddedCells-res.Cells)/float64(res.Cells))
	}
	fmt.Fprintln(w, line)
}
