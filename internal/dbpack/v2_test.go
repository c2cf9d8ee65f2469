package dbpack

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"genomedsm/internal/bio"
	"genomedsm/internal/dispatch"
	"genomedsm/internal/search"
	"genomedsm/internal/shard"
)

// alignedCopy copies blob into an 8-aligned buffer — the alignment
// guarantee mmap and readAligned provide — so tests can call decodeV2
// on crafted bytes directly.
func alignedCopy(blob []byte) []byte {
	buf := make([]uint64, (len(blob)+7)/8+1)
	b := unsafe.Slice((*byte)(unsafe.Pointer(&buf[0])), len(blob))
	copy(b, blob)
	return b
}

// parseV2Table reads the section table out of a valid v2 blob.
func parseV2Table(t *testing.T, blob []byte) []v2Section {
	t.Helper()
	ns := int(binary.LittleEndian.Uint32(blob[12:]))
	secs := make([]v2Section, ns)
	for i := range secs {
		hdr := blob[v2FixedHdr+i*v2SecHdr:]
		secs[i] = v2Section{
			kind: binary.LittleEndian.Uint32(hdr),
			off:  binary.LittleEndian.Uint64(hdr[8:]),
			len:  binary.LittleEndian.Uint64(hdr[16:]),
			sum:  binary.LittleEndian.Uint64(hdr[24:]),
		}
	}
	return secs
}

// refixV2 recomputes every section checksum and the header checksum in
// place — how a forger with full file access would cover their tracks.
// Used to prove that semantic validation, not just checksums, guards
// derived data.
func refixV2(blob []byte) []byte {
	ns := int(binary.LittleEndian.Uint32(blob[12:]))
	for i := 0; i < ns; i++ {
		hdr := blob[v2FixedHdr+i*v2SecHdr:]
		off := binary.LittleEndian.Uint64(hdr[8:])
		slen := binary.LittleEndian.Uint64(hdr[16:])
		binary.LittleEndian.PutUint64(hdr[24:], sum64(blob[off:off+slen]))
	}
	hdrLen := v2FixedHdr + ns*v2SecHdr
	binary.LittleEndian.PutUint64(blob[hdrLen:], sum64(blob[:hdrLen]))
	return blob
}

func encodeV2T(t *testing.T) []byte {
	t.Helper()
	p, err := Build(testRecords(), 0)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := EncodeV2(p)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func TestV2RoundTrip(t *testing.T) {
	p, err := Build(testRecords(), 0)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	path := filepath.Join(t.TempDir(), "db.pack")
	if err := WriteFileV2(path, p); err != nil {
		t.Fatalf("WriteFileV2: %v", err)
	}
	got, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if got.Info.Version != 2 {
		t.Errorf("Info.Version = %d, want 2", got.Info.Version)
	}
	if runtime.GOOS == "linux" && got.Info.Mode != LoadMMap {
		t.Errorf("Info.Mode = %v, want mmap on linux", got.Info.Mode)
	}
	if got.Info.Mode == LoadMMap && got.Info.MappedBytes == 0 {
		t.Error("mmap load reports 0 mapped bytes")
	}
	if got.Info.LayoutRebuilt {
		t.Errorf("clean pack reports rebuilt layout: %s", got.Info.Notice)
	}
	want := testRecords()
	recs := got.DB.Records()
	if len(recs) != len(want) {
		t.Fatalf("got %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if recs[i].ID != want[i].ID || recs[i].Description != want[i].Description ||
			!bytes.Equal(recs[i].Seq, want[i].Seq) {
			t.Errorf("record %d round-tripped to %+v", i, recs[i])
		}
	}
	lay := got.DB.Layout()
	if lay == nil {
		t.Fatal("no lane layout after Open")
	}
	if hostLittleEndian && !lay.IsView() {
		t.Error("layout copied on a little-endian host")
	}
	if err := lay.Validate(got.DB); err != nil {
		t.Errorf("loaded layout fails validation: %v", err)
	}
	if err := got.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := got.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// Golden pins for the v2 wire format: the full blob is dozens of KB of
// mostly page padding, so the header (which transitively covers every
// section via its checksums) is pinned as hex, and the whole blob by
// length + FNV-1a. If an intentional format change trips this, bump
// packVersionV2 and re-pin.
const (
	goldenV2HeaderHex = "47444d5041434b02020000000700000000000000050000005100000000000000" +
		"010000000000000000100000000000002f0000000000000016ad4f85406b1274" +
		"0200000000000000002000000000000030000000000000001e86001c48d59308" +
		"030000000000000000300000000000005100000000000000ebdfed02cf81de98" +
		"0400000000000000004000000000000014000000000000007bd1411e87ac06f2" +
		"0500000000000000005000000000000014000000000000001204c04187e0a778" +
		"0700000000000000006000000000000010000000000000005940ebb4076c3208" +
		"08000000000000000070000000000000e000000000000000598d000667b99be5"
	goldenV2BlobLen = 28896
	goldenV2BlobFNV = uint64(0xffb9f42bf29743bf)
)

func TestV2GoldenHeader(t *testing.T) {
	blob := encodeV2T(t)
	ns := int(binary.LittleEndian.Uint32(blob[12:]))
	hdrLen := v2FixedHdr + ns*v2SecHdr
	got := fmt.Sprintf("%x", blob[:hdrLen])
	if got != goldenV2HeaderHex {
		t.Errorf("v2 header changed:\n got %s\nwant %s\n(intentional? bump packVersionV2 and re-pin)", got, goldenV2HeaderHex)
	}
	if len(blob) != goldenV2BlobLen || sum64(blob) != goldenV2BlobFNV {
		t.Errorf("v2 blob changed: len %d fnv %#x, want len %d fnv %#x\n(intentional? bump packVersionV2 and re-pin)",
			len(blob), sum64(blob), goldenV2BlobLen, goldenV2BlobFNV)
	}
	if _, err := decodeV2(alignedCopy(blob), Info{}); err != nil {
		t.Fatalf("golden blob does not decode: %v", err)
	}
}

func TestV2DecodeRejects(t *testing.T) {
	base := encodeV2T(t)
	secOf := func(kind uint32) v2Section {
		for _, s := range parseV2Table(t, base) {
			if s.kind == kind {
				return s
			}
		}
		t.Fatalf("no section kind %d", kind)
		return v2Section{}
	}
	// reseal recomputes the header checksum over the table the blob now
	// claims, leaving the section checksums alone (refixV2 redoes both).
	reseal := func(b []byte) []byte {
		hdrLen := v2FixedHdr + int(binary.LittleEndian.Uint32(b[12:]))*v2SecHdr
		binary.LittleEndian.PutUint64(b[hdrLen:], sum64(b[:hdrLen]))
		return b
	}
	// The order mutants are in range and re-sealed, so only
	// search.PreparedDB's canonical-order proof can refuse them: pin that
	// it is that check which fires.
	wantErr := map[string]string{
		"order swapped but a valid permutation": "canonical",
		"order names one record twice":          "twice",
		"legacy word-index header":              "genomedsm index",
		"legacy section kind 6":                 "genomedsm index",
	}
	for _, tc := range []struct {
		name string
		mut  func(b []byte) []byte
	}{
		{"truncated header", func(b []byte) []byte { return b[:16] }},
		{"truncated table", func(b []byte) []byte { return b[:v2FixedHdr+8] }},
		{"truncated sections", func(b []byte) []byte { return b[:pageAlign] }},
		{"bad version", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], 3)
			return b
		}},
		{"zero sections", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[12:], 0)
			return b
		}},
		{"section count over cap", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[12:], maxSections+1)
			return b
		}},
		{"header flip without refix", func(b []byte) []byte {
			b[v2FixedHdr+16] ^= 0x40
			return b
		}},
		{"section flip without refix", func(b []byte) []byte {
			s := secOf(secMeta)
			b[s.off] ^= 0x01
			return b
		}},
		{"misaligned section", func(b []byte) []byte {
			// Shift a section's recorded offset off the page boundary and
			// re-seal the header: alignment is checked before checksums.
			binary.LittleEndian.PutUint64(b[v2FixedHdr+8:], secOf(secMeta).off+8)
			return reseal(b)
		}},
		{"section beyond EOF", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[v2FixedHdr+16:], uint64(len(b)))
			return reseal(b)
		}},
		{"duplicate section kind", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[v2FixedHdr+v2SecHdr:], secMeta)
			return reseal(b)
		}},
		{"unknown section kind", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[v2FixedHdr:], 99)
			return reseal(b)
		}},
		{"missing section", func(b []byte) []byte {
			// Drop the last table entry: the shorter table must re-seal at
			// its new end, and decode must notice the absent kind.
			binary.LittleEndian.PutUint32(b[12:], 6)
			return reseal(b)
		}},
		{"record count lie", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[20:], 6)
			return refixV2(b)
		}},
		{"total bases lie", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[24:], binary.LittleEndian.Uint64(b[24:])+1)
			return refixV2(b)
		}},
		{"seq offset overflow", func(b []byte) []byte {
			s := secOf(secSeqOff)
			binary.LittleEndian.PutUint64(b[s.off+8:], 1<<40)
			return refixV2(b)
		}},
		{"seq offsets decrease", func(b []byte) []byte {
			s := secOf(secSeqOff)
			binary.LittleEndian.PutUint64(b[s.off+16:], 0)
			binary.LittleEndian.PutUint64(b[s.off+8:], 5)
			return refixV2(b)
		}},
		{"order rank out of range", func(b []byte) []byte {
			s := secOf(secOrder)
			binary.LittleEndian.PutUint32(b[s.off:], 99)
			return refixV2(b)
		}},
		{"order swapped but a valid permutation", func(b []byte) []byte {
			// Ranks 2 and 3 (r0, r1) tie on length, so swapping them keeps
			// the length table true: only the index-ascending tie rule breaks.
			s := secOf(secOrder)
			r2, r3 := binary.LittleEndian.Uint32(b[s.off+8:]), binary.LittleEndian.Uint32(b[s.off+12:])
			binary.LittleEndian.PutUint32(b[s.off+8:], r3)
			binary.LittleEndian.PutUint32(b[s.off+12:], r2)
			return refixV2(b)
		}},
		{"order names one record twice", func(b []byte) []byte {
			s := secOf(secOrder)
			copy(b[s.off+4:s.off+8], b[s.off:s.off+4])
			return refixV2(b)
		}},
		{"length table lie", func(b []byte) []byte {
			s := secOf(secLens)
			binary.LittleEndian.PutUint32(b[s.off:], binary.LittleEndian.Uint32(b[s.off:])+1)
			return refixV2(b)
		}},
		{"legacy word-index header", func(b []byte) []byte {
			// What the retired `index -word 4` wrote at offset 16.
			binary.LittleEndian.PutUint32(b[16:], 4)
			return refixV2(b)
		}},
		{"legacy section kind 6", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[v2FixedHdr+5*v2SecHdr:], secRetired)
			return reseal(b)
		}},
	} {
		blob := tc.mut(append([]byte(nil), base...))
		_, err := decodeV2(alignedCopy(blob), Info{})
		if err == nil {
			t.Errorf("%s: decodeV2 accepted the mutant", tc.name)
		} else if want := wantErr[tc.name]; !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, want)
		} else if strings.Contains(tc.name, "legacy") != errors.Is(err, ErrLegacyIndex) {
			t.Errorf("%s: error %q: wrong use of ErrLegacyIndex", tc.name, err)
		}
	}
}

// TestV2ForgedLayoutSection proves the derived-data trust model: a
// lane-group section that passes its checksum (the forger re-sealed the
// file) but disagrees with the sequence bytes is detected by semantic
// validation and rebuilt in heap — the load slows, results cannot
// change.
func TestV2ForgedLayoutSection(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind uint32
		mut  func(b []byte, s v2Section)
	}{
		{"forged lane words", secLanes, func(b []byte, s v2Section) { b[s.off] ^= 0x03 }},
		{"forged group offsets", secGroupOff, func(b []byte, s v2Section) {
			binary.LittleEndian.PutUint64(b[s.off+8:], 0)
		}},
	} {
		blob := encodeV2T(t)
		for _, s := range parseV2Table(t, blob) {
			if s.kind == tc.kind {
				tc.mut(blob, s)
			}
		}
		refixV2(blob)
		path := filepath.Join(t.TempDir(), "forged.pack")
		if err := writeBlob(path, blob); err != nil {
			t.Fatal(err)
		}
		p, err := Open(path)
		if err != nil {
			t.Fatalf("%s: Open rejected a re-sealed pack: %v", tc.name, err)
		}
		if !p.Info.LayoutRebuilt {
			t.Fatalf("%s: forged layout was trusted (Notice=%q)", tc.name, p.Info.Notice)
		}
		lay := p.DB.Layout()
		if lay == nil || lay.IsView() {
			t.Fatalf("%s: rebuilt layout should live in heap", tc.name)
		}
		if err := lay.Validate(p.DB); err != nil {
			t.Fatalf("%s: rebuilt layout invalid: %v", tc.name, err)
		}
		q := bio.Sequence("ACGTACGTACGTACGT")
		got, err := search.RunCtx(context.Background(), q, p.DB, search.Options{Dispatch: "fixed"})
		if err != nil {
			t.Fatal(err)
		}
		want, err := search.Run(q, testRecords(), search.Options{Dispatch: "fixed"})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Hits, want.Hits) {
			t.Errorf("%s: hits diverged after rebuild:\n got %+v\nwant %+v", tc.name, got.Hits, want.Hits)
		}
		p.Close()
	}
}

// TestOpenRejectsLegacyV1 pins what is left of pack v1 — its magic is
// recognised so the error can name the format and the remedy, and
// nothing behind it is read, mapped or kept open — and the same
// contract for a v2 pack that still carries the retired word index.
func TestOpenRejectsLegacyV1(t *testing.T) {
	wordIndexed := encodeV2T(t)
	binary.LittleEndian.PutUint32(wordIndexed[16:], 11)
	refixV2(wordIndexed)
	for _, tc := range []struct {
		blob string
		want error
	}{
		{magicV1, ErrLegacyV1},
		{magicV1 + "\x01", ErrLegacyV1},
		{magicV1 + "\x01\x01\x05 any varint stream at all", ErrLegacyV1},
		{string(wordIndexed), ErrLegacyIndex},
	} {
		path := filepath.Join(t.TempDir(), "legacy.pack")
		if err := os.WriteFile(path, []byte(tc.blob), 0o644); err != nil {
			t.Fatal(err)
		}
		fds := openFDs()
		p, err := Open(path)
		if p != nil || !errors.Is(err, tc.want) {
			t.Fatalf("%d-byte pack: Open = %v, %v; want %v", len(tc.blob), p, err, tc.want)
		}
		if !strings.Contains(err.Error(), "genomedsm index") || strings.Contains(err.Error(), "not a database pack") {
			t.Errorf("%d-byte pack: error %q should name the remedy, not call the file foreign", len(tc.blob), err)
		}
		if got := openFDs(); got != fds {
			t.Errorf("%d-byte pack: %d fds open after the rejection, %d before", len(tc.blob), got, fds)
		}
		if maps, err := os.ReadFile("/proc/self/maps"); err == nil && bytes.Contains(maps, []byte(path)) {
			t.Errorf("%d-byte pack: rejected pack is still mapped", len(tc.blob))
		}
	}
}

// openFDs counts this process's open descriptors (0 where /proc is
// absent, which makes the leak check vacuous rather than wrong).
func openFDs() int {
	ents, _ := os.ReadDir("/proc/self/fd")
	return len(ents)
}

// v2DiffDB builds a database large enough to exercise lane groups,
// pruning and sharding, returning the records and a homolog-bearing
// query.
func v2DiffDB(t *testing.T) ([]bio.Record, bio.Sequence) {
	t.Helper()
	g := bio.NewGenerator(99)
	q := g.Random(200)
	recs := make([]bio.Record, 60)
	for i := range recs {
		n := 80 + (i*53)%300
		recs[i] = bio.Record{ID: fmt.Sprintf("r%03d", i), Seq: g.Random(n)}
	}
	for i := 0; i < 6; i++ {
		frag := q[10*i : 10*i+120]
		recs[i*9].Seq = append(append(bio.Sequence(nil), recs[i*9].Seq[:40]...),
			g.MutatedCopy(frag, bio.DefaultMutationModel())...)
	}
	return recs, q
}

// TestV2SearchDifferential is the tentpole's exactness pin: every scan
// mode over an mmap-opened v2 pack returns bit-identical hits to the
// same scan over an in-memory database prepared from the same records.
func TestV2SearchDifferential(t *testing.T) {
	recs, q := v2DiffDB(t)
	p, err := Build(recs, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "db.pack")
	if err := WriteFileV2(path, p); err != nil {
		t.Fatal(err)
	}
	opened, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	if runtime.GOOS == "linux" && opened.Info.Mode != LoadMMap {
		t.Fatalf("differential wants the mmap path, got %v", opened.Info.Mode)
	}
	fresh := search.NewDB(recs)
	ctx := context.Background()
	// Every lane group forced to start at the int16 rung.
	inter16 := dispatch.New(dispatch.ModeAuto, nil)
	inter16.ForceGroup = func(int, []int) (dispatch.GroupRoute, bool) { return dispatch.GroupInter16, true }
	for _, tc := range []struct {
		name string
		opt  search.Options
	}{
		{"inter8", search.Options{Dispatch: "fixed", TopK: 8}},
		{"inter8 pruned", search.Options{Dispatch: "fixed", TopK: 8, Prune: true}},
		{"dispatch auto", search.Options{TopK: 8, Dispatch: "auto"}},
		{"int16", search.Options{Router: inter16, TopK: 8}},
		{"scalar", search.Options{Lanes: 1, TopK: 8}},
	} {
		got, err := search.RunCtx(ctx, q, opened.DB, tc.opt)
		if err != nil {
			t.Fatalf("%s over pack: %v", tc.name, err)
		}
		want, err := search.RunCtx(ctx, q, fresh, tc.opt)
		if err != nil {
			t.Fatalf("%s over fresh DB: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got.Hits, want.Hits) {
			t.Errorf("%s: pack hits diverge from in-memory hits", tc.name)
		}
		if got.Searched != want.Searched || got.Cells != want.Cells {
			t.Errorf("%s: pack scanned %d recs/%d cells, in-memory %d/%d",
				tc.name, got.Searched, got.Cells, want.Searched, want.Cells)
		}
	}

	// Batch mode over the pack.
	queries := []search.BatchQuery{{Seq: q}, {Seq: q[:90]}, {Seq: q[40:]}}
	gb, err := search.RunBatch(ctx, queries, opened.DB, search.Options{Dispatch: "fixed", TopK: 6})
	if err != nil {
		t.Fatal(err)
	}
	wb, err := search.RunBatch(ctx, queries, fresh, search.Options{Dispatch: "fixed", TopK: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i := range wb {
		if !reflect.DeepEqual(gb[i].Result.Hits, wb[i].Result.Hits) {
			t.Errorf("batch query %d: pack hits diverge", i)
		}
	}

	// Sharded mode: workers attach to the pack's mapped layout slices.
	sopt := search.Options{TopK: 8, Prune: true}
	cl, err := shard.New(opened.DB, shard.Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	gs, err := cl.Search(ctx, q, sopt)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := search.RunCtx(ctx, q, fresh, sopt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gs.Hits, ws.Hits) {
		t.Error("sharded pack hits diverge from single-node in-memory hits")
	}
}

// FuzzDecodeV2 flips bytes anywhere in a valid v2 blob. Every mutant
// must either be rejected or decode to exactly the original database —
// the latter happens only when the flip lands in inter-section zero
// padding, which no view ever reads.
func FuzzDecodeV2(f *testing.F) {
	p, err := Build(testRecords(), 0)
	if err != nil {
		f.Fatal(err)
	}
	base, err := EncodeV2(p)
	if err != nil {
		f.Fatal(err)
	}
	want, err := decodeV2(alignedCopy(base), Info{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint32(8), byte(0x01))
	f.Add(uint32(v2FixedHdr), byte(0x80))
	f.Add(uint32(pageAlign), byte(0x40))
	f.Add(uint32(len(base)-1), byte(0xff))
	f.Add(uint32(len(magicV2)-1), magicV1[7]^magicV2[7]) // the blob Open rejects as legacy v1
	f.Add(uint32(16), byte(0x0a))                        // header word 11: the legacy word-index blob
	f.Fuzz(func(t *testing.T, pos uint32, flip byte) {
		blob := append([]byte(nil), base...)
		blob[int(pos)%len(blob)] ^= flip | 1
		got, err := decodeV2(alignedCopy(blob), Info{})
		if err != nil {
			return
		}
		grecs, wrecs := got.DB.Records(), want.DB.Records()
		if len(grecs) != len(wrecs) {
			t.Fatalf("accepted mutant decodes %d records, want %d", len(grecs), len(wrecs))
		}
		for i := range wrecs {
			if grecs[i].ID != wrecs[i].ID || grecs[i].Description != wrecs[i].Description ||
				!bytes.Equal(grecs[i].Seq, wrecs[i].Seq) {
				t.Fatalf("accepted mutant changed record %d", i)
			}
		}
		if !reflect.DeepEqual(got.DB.Order(), want.DB.Order()) {
			t.Fatal("accepted mutant changed the scan order")
		}
		if got.Info.LayoutRebuilt {
			// A padding flip touches no section, so the layout must have
			// validated; anything else had to be caught above.
			t.Fatal("accepted mutant forced a layout rebuild")
		}
	})
}
