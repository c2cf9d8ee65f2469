package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"genomedsm/internal/bio"
)

func TestSearchCmdSynthetic(t *testing.T) {
	var buf bytes.Buffer
	err := searchCmd([]string{"-n", "400", "-db-size", "40", "-db-len", "300", "-k", "5"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "searched 40 records") {
		t.Errorf("missing scan summary:\n%s", out)
	}
	// The synthetic database plants homologs of the query, so the top hit
	// must be one of them, with its alignment span retrieved.
	if !strings.Contains(out, "hom") || !strings.Contains(out, "..") {
		t.Errorf("no planted homolog hit with spans in output:\n%s", out)
	}
	if !strings.Contains(out, "Mcells/s") {
		t.Errorf("missing throughput line:\n%s", out)
	}
}

func TestSearchCmdJSON(t *testing.T) {
	var buf bytes.Buffer
	err := searchCmd([]string{"-n", "300", "-db-size", "32", "-k", "4", "-json"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	var rep searchJSON
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if rep.QueryLen != 300 || rep.Records != 32 {
		t.Errorf("report header: %+v", rep)
	}
	if len(rep.Hits) == 0 || len(rep.Hits) > 4 {
		t.Fatalf("got %d hits, want 1..4", len(rep.Hits))
	}
	for i := 1; i < len(rep.Hits); i++ {
		if rep.Hits[i].Score > rep.Hits[i-1].Score {
			t.Errorf("hits not sorted by score: %+v", rep.Hits)
		}
	}
	if rep.Hits[0].QBegin < 1 || rep.Hits[0].TBegin < 1 {
		t.Errorf("top hit missing alignment span: %+v", rep.Hits[0])
	}
	// Pruning is on by default: the kernels may compute fewer padded
	// cells than the full matrix, but never zero, and the stats must be
	// present and account for every record.
	if rep.Cells <= 0 || rep.PaddedCells <= 0 {
		t.Errorf("cell accounting: cells=%d padded=%d", rep.Cells, rep.PaddedCells)
	}
	if rep.Prune == nil {
		t.Fatal("default run missing prune stats")
	}
	if n := rep.Prune.Skipped + rep.Prune.Abandoned + rep.Prune.Scanned; n != rep.Records {
		t.Errorf("prune stats cover %d of %d records", n, rep.Records)
	}
}

// TestSearchCmdPruneDifferential pins the CLI contract behind -prune:
// identical hits with pruning on and off, on both the skewed (planted
// homologs) and uniform (pure noise) synthetic databases.
func TestSearchCmdPruneDifferential(t *testing.T) {
	hits := func(args ...string) []searchJSONHit {
		t.Helper()
		var buf bytes.Buffer
		if err := searchCmd(append(args, "-n", "350", "-db-size", "48", "-db-len", "250", "-json"), &buf); err != nil {
			t.Fatal(err)
		}
		var rep searchJSON
		if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
			t.Fatal(err)
		}
		return rep.Hits
	}
	for _, plant := range []string{"8", "0"} {
		want := hits("-prune=false", "-plant-every", plant)
		got := hits("-prune", "-plant-every", plant)
		if len(got) != len(want) {
			t.Fatalf("plant=%s: %d hits, want %d", plant, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("plant=%s hit %d: %+v, want %+v", plant, i, got[i], want[i])
			}
		}
	}
}

func TestSearchCmdPruneText(t *testing.T) {
	var buf bytes.Buffer
	if err := searchCmd([]string{"-n", "300", "-db-size", "24", "-k", "3"}, &buf); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, "pruning: skipped") {
		t.Errorf("missing pruning stats line:\n%s", out)
	}
	buf.Reset()
	if err := searchCmd([]string{"-n", "300", "-db-size", "24", "-k", "3", "-prune=false"}, &buf); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); strings.Contains(out, "pruning:") || !strings.Contains(out, "padding overhead") {
		t.Errorf("-prune=false output wrong:\n%s", out)
	}
}

func TestSearchCmdFASTA(t *testing.T) {
	dir := t.TempDir()
	g := bio.NewGenerator(7)
	q := g.Random(500)
	qPath := filepath.Join(dir, "q.fa")
	dbPath := filepath.Join(dir, "db.fa")
	if err := bio.WriteFASTAFile(qPath, bio.Record{ID: "query", Seq: q}); err != nil {
		t.Fatal(err)
	}
	recs := []bio.Record{
		{ID: "self", Seq: q.Clone()}, // identity hit: must rank first, score 500
		{ID: "noise1", Seq: g.Random(400)},
		{ID: "noise2", Seq: g.Random(600)},
	}
	if err := bio.WriteFASTAFile(dbPath, recs...); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := searchCmd([]string{"-q", qPath, "-db", dbPath, "-k", "2", "-json"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	var rep searchJSON
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	// The identity record saturates the int8 lanes (500 > 127), so this
	// also exercises the widening fallback through the CLI path.
	if len(rep.Hits) == 0 || rep.Hits[0].ID != "self" || rep.Hits[0].Score != 500 {
		t.Fatalf("identity record not the top hit: %+v", rep.Hits)
	}
	if _, err := bio.ReadFASTAFile(filepath.Join(dir, "absent.fa")); err == nil {
		t.Fatal("test precondition: absent file must not read")
	}
	if err := searchCmd([]string{"-q", filepath.Join(dir, "absent.fa"), "-db", dbPath}, &buf); err == nil {
		t.Error("missing query file accepted")
	}
	if err := searchCmd([]string{"-q", qPath, "-db", filepath.Join(dir, "absent.fa")}, &buf); err == nil {
		t.Error("missing database file accepted")
	}
}

func TestSearchCmdBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := searchCmd([]string{"-lanes", "8", "-n", "50", "-db-size", "4"}, &buf); err == nil {
		t.Error("the retired -lanes flag accepted")
	}
	if err := searchCmd([]string{"-match", "-1", "-n", "50", "-db-size", "4"}, &buf); err == nil {
		t.Error("invalid scoring accepted")
	}
	if err := searchCmd([]string{"-bogus"}, &buf); err == nil {
		t.Error("unknown flag accepted")
	}
}
