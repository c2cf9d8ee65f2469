// Package dbpack persists a prepared search database: the FASTA records
// plus everything internal/search derives from them once per database —
// the canonical length-sorted scan order behind lane-group batching, the
// per-record length table the O(1) skip bound reads, and the lane-group
// layout the SWAR kernels scan. `genomedsm index` pays the FASTA parse,
// the sort and the lane interleave once; `genomedsm serve` (or `search
// -pack`) maps the pack and starts answering queries without
// recomputing any of it.
//
// The file is one section container (v2.go, DESIGN.md §12): an 8-byte
// magic, a checksummed header and section table, then page-aligned,
// individually-checksummed little-endian sections that Open mmaps and
// hands to internal/search as views. Loading validates the magic, the
// format version, every checksum, the stored scan order (it must equal
// the unique canonical order search.NewDB would compute), the length
// table and the lane layout. A pack that opens is therefore
// indistinguishable, to a scan, from a database prepared in-process.
package dbpack

import (
	"os"
	"path/filepath"

	"genomedsm/internal/bio"
	"genomedsm/internal/search"
)

// Pack is a loaded (or about-to-be-written) database pack.
type Pack struct {
	// DB is the prepared database, ready to scan. After Open it carries
	// the stored scan order and mapped lane-group layout.
	DB *search.DB
	// Info describes how the pack got into memory (Open fills it).
	Info Info
	// close releases the mmap'd region of an Open'd pack.
	close func() error
}

// Build prepares records for packing: the canonical scan order is
// computed. The second parameter is inert — it sized the retired word
// index, and the frozen bench/layers.go still calls Build(recs, 11) and
// Build(recs, 0); it goes in the next [benchmark] PR.
func Build(recs []bio.Record, _ int) (*Pack, error) {
	return &Pack{DB: search.NewDB(recs)}, nil
}

// writeBlob writes blob atomically: temp file in the destination
// directory, fsync, rename.
func writeBlob(path string, blob []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".dbpack-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
