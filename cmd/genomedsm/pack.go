package main

import (
	"fmt"
	"io"

	"genomedsm/internal/dbpack"
)

// openPack is the one shared pack-prepare path for `serve` and
// `search -pack`: open the file (mmap'd with zero-copy views and the
// precomputed lane layout attached) and report how the bytes got into
// memory, plus any load notice. Both commands used to duplicate this
// load-and-prepare work with slightly different behavior; now neither
// can drift.
func openPack(path string, w io.Writer) (*dbpack.Pack, error) {
	p, err := dbpack.Open(path)
	if err != nil {
		return nil, err
	}
	mode := p.Info.Mode.String()
	switch p.Info.Mode {
	case dbpack.LoadMMap:
		fmt.Fprintf(w, "pack %s: %s, %d bytes mapped\n", path, mode, p.Info.MappedBytes)
	default:
		fmt.Fprintf(w, "pack %s: %s, %d bytes on heap\n", path, mode, p.Info.HeapBytes)
	}
	if p.Info.Notice != "" {
		fmt.Fprintf(w, "pack %s: %s\n", path, p.Info.Notice)
	}
	return p, nil
}
