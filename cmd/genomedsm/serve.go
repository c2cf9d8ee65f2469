package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"genomedsm"
	"genomedsm/internal/bio"
	"genomedsm/internal/dbpack"
	"genomedsm/internal/dispatch"
	"genomedsm/internal/search"
	"genomedsm/internal/server"
)

// indexCmd implements `genomedsm index`: build the pre-packed database
// a resident `genomedsm serve` (or `search -pack`) loads without
// re-parsing FASTA, re-sorting, or re-interleaving. Inputs mirror the
// search subcommand: a FASTA database, or the same reproducible
// synthetic database with planted homologs.
func indexCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("genomedsm index", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		dbFile = fs.String("db", "", "database FASTA file (synthetic when empty)")
		out    = fs.String("o", "", "output pack file (required)")
		n      = fs.Int("n", 1000, "synthetic query length (homolog planting)")
		dbSize = fs.Int("db-size", 200, "synthetic database record count")
		dbLen  = fs.Int("db-len", 1000, "synthetic database base record length")
		seed   = fs.Int64("seed", 42, "synthetic generator seed")
		plant  = fs.Int("plant-every", 8, "plant a mutated query homolog every Nth synthetic record (0 = pure noise)")
		qOut   = fs.String("q-out", "", "also write the (synthetic) query to this FASTA file")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return err
	}
	if *out == "" {
		return fmt.Errorf("missing -o: where to write the pack")
	}
	q, recs, err := loadSearchInputs("", *dbFile, *n, *dbSize, *dbLen, *seed, *plant)
	if err != nil {
		return err
	}
	if *qOut != "" {
		if err := bio.WriteFASTAFile(*qOut, bio.Record{ID: "query", Seq: q}); err != nil {
			return err
		}
	}
	start := time.Now()
	p, err := dbpack.Build(recs, 0)
	if err != nil {
		return err
	}
	// Index time is where the lane-group interleave is paid: EncodeV2
	// computes it once and lays it out exactly as the SWAR kernels
	// consume it, so every later Open is validate-header-and-map.
	if err := dbpack.WriteFileV2(*out, p); err != nil {
		return err
	}
	info, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "packed %d records (%d bases) into %s (v2): %d bytes in %.3fs\n",
		p.DB.Size(), p.DB.TotalBases(), *out, info.Size(), time.Since(start).Seconds())
	return nil
}

// serveReady, when non-nil, receives the bound address once the
// listener is up — a test hook so the CLI tests learn the :0 port
// without parsing output. Never set outside tests.
var serveReady func(addr string)

// serveCmd implements `genomedsm serve`: load a pre-packed database (or
// build one in memory) and answer HTTP queries until SIGINT/SIGTERM,
// then drain: admitted queries finish, new ones get 503, and the
// process exits cleanly.
func serveCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("genomedsm serve", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		pack     = fs.String("pack", "", "pre-packed database from `genomedsm index` (preferred)")
		dbFile   = fs.String("db", "", "database FASTA file (when no -pack; synthetic when both empty)")
		addr     = fs.String("addr", "127.0.0.1:7878", "listen address")
		k        = fs.Int("k", 10, "default number of hits per query")
		workers  = fs.Int("workers", 0, "scan worker-pool size (0 = all host cores)")
		match    = fs.Int("match", 1, "match reward")
		mismatch = fs.Int("mismatch", -1, "mismatch penalty (negative)")
		gap      = fs.Int("gap", -2, "gap penalty (negative)")
		disp     = fs.String("dispatch", "auto", "default kernel routing: auto (fixed is an alias), scalar")
		prune    = fs.Bool("prune", true, "default exact top-K pruning")
		shards   = fs.Int("shards", 0, "scatter every scan across N in-process shards with gossiped pruning floors (0 or 1 = single-node)")
		queue    = fs.Int("queue", 64, "admission queue bound (requests; beyond it clients get 429 with Retry-After)")
		batchMax = fs.Int("batch-max", 16, "max queries coalesced into one shared scan")
		dbSize   = fs.Int("db-size", 200, "synthetic database record count")
		dbLen    = fs.Int("db-len", 1000, "synthetic database base record length")
		seed     = fs.Int64("seed", 42, "synthetic generator seed")
		plant    = fs.Int("plant-every", 8, "synthetic homolog planting cadence")
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

	var db *search.DB
	var packInfo *dbpack.Info
	switch {
	case *pack != "":
		p, err := openPack(*pack, w)
		if err != nil {
			return err
		}
		defer p.Close()
		db = p.DB
		packInfo = &p.Info
	default:
		_, recs, err := loadSearchInputs("", *dbFile, 1000, *dbSize, *dbLen, *seed, *plant)
		if err != nil {
			return err
		}
		db = search.NewDB(recs)
	}

	dispatch.SetActive(dispatch.New(mode, nil))
	srv, err := server.New(server.Config{
		DB:   db,
		Pack: packInfo,
		Options: search.Options{
			Scoring:  genomedsm.Scoring{Match: *match, Mismatch: *mismatch, Gap: *gap},
			TopK:     *k,
			Workers:  *workers,
			Dispatch: mode.String(),
			Prune:    *prune,
		},
		MaxQueue: *queue,
		BatchMax: *batchMax,
		Shards:   *shards,
	})
	if err != nil {
		return err
	}

	// Listen before announcing anything: a busy port must fail loudly
	// here, not surface as a dead server.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	line := fmt.Sprintf("serving %d records (%d bases)", db.Size(), db.TotalBases())
	if *shards >= 2 {
		line += fmt.Sprintf(" across %d shards", *shards)
	}
	fmt.Fprintf(w, "%s\n", line)
	fmt.Fprintf(w, "listening on http://%s\n", bound)
	if serveReady != nil {
		serveReady(bound)
	}

	hs := &http.Server{Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills hard
	fmt.Fprintln(w, "shutdown signal: draining in-flight queries")
	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := hs.Shutdown(dctx); err != nil {
		return err
	}
	fmt.Fprintln(w, "drained")
	return nil
}
