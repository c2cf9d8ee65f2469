package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// syncBuffer is a mutex-guarded bytes.Buffer: serveCmd writes progress
// lines from the command goroutine while the test reads them.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestIndexCmd(t *testing.T) {
	dir := t.TempDir()
	pack := filepath.Join(dir, "db.pack")
	qOut := filepath.Join(dir, "q.fa")
	var buf bytes.Buffer
	err := indexCmd([]string{
		"-db-size", "24", "-db-len", "120", "-n", "200",
		"-o", pack, "-q-out", qOut,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "packed 24 records") {
		t.Errorf("index summary missing:\n%s", buf.String())
	}
	for _, f := range []string{pack, qOut} {
		if _, err := os.Stat(f); err != nil {
			t.Errorf("expected output %s: %v", f, err)
		}
	}
}

func TestIndexCmdErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"missing output", []string{"-db-size", "8"}, "missing -o"},
		{"missing db file", []string{"-db", filepath.Join(t.TempDir(), "nope.fa"), "-o", filepath.Join(t.TempDir(), "x.pack")}, "no such file"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			err := indexCmd(tc.args, &buf)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// TestSearchPackParity pins the cold-start promise: `search -pack`
// answers bit-identically to the same synthetic search that parses and
// prepares in-process, hits and accounting both.
func TestSearchPackParity(t *testing.T) {
	dir := t.TempDir()
	pack := filepath.Join(dir, "db.pack")
	args := []string{"-n", "300", "-db-size", "32", "-db-len", "200", "-seed", "9"}

	var buf bytes.Buffer
	if err := indexCmd(append([]string{"-o", pack}, args...), &buf); err != nil {
		t.Fatal(err)
	}
	var direct, packed bytes.Buffer
	common := []string{"-k", "5", "-json"}
	if err := searchCmd(append(append([]string{}, args...), common...), &direct); err != nil {
		t.Fatal(err)
	}
	if err := searchCmd(append([]string{"-pack", pack, "-n", "300", "-seed", "9"}, common...), &packed); err != nil {
		t.Fatal(err)
	}
	var a, b searchJSON
	if err := json.Unmarshal(direct.Bytes(), &a); err != nil {
		t.Fatalf("direct: %v", err)
	}
	if err := json.Unmarshal(packed.Bytes(), &b); err != nil {
		t.Fatalf("packed: %v", err)
	}
	if len(a.Hits) == 0 {
		t.Fatal("direct search found no hits")
	}
	if fmt.Sprintf("%+v", a.Hits) != fmt.Sprintf("%+v", b.Hits) {
		t.Errorf("pack-loaded hits differ:\ndirect %+v\npacked %+v", a.Hits, b.Hits)
	}
	if a.Records != b.Records || a.Cells != b.Cells {
		t.Errorf("accounting differs: %d/%d vs %d/%d", a.Records, a.Cells, b.Records, b.Cells)
	}
}

// buildTestPack writes a small valid pack and returns its path.
func buildTestPack(t *testing.T) string {
	t.Helper()
	pack := filepath.Join(t.TempDir(), "db.pack")
	var buf bytes.Buffer
	if err := indexCmd([]string{"-db-size", "16", "-db-len", "100", "-n", "150", "-o", pack}, &buf); err != nil {
		t.Fatal(err)
	}
	return pack
}

// TestOpenPackFormats pins the shared prepare path both `serve` and
// `search -pack` go through: an index is v2, mmaps and says so — and
// there is no second format to ask for.
func TestOpenPackFormats(t *testing.T) {
	pack := filepath.Join(t.TempDir(), "v2.pack")
	var buf bytes.Buffer
	if err := indexCmd([]string{"-db-size", "16", "-db-len", "100", "-n", "150", "-o", pack}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "(v2)") {
		t.Errorf("index output %q does not name the v2 format", buf.String())
	}
	buf.Reset()
	p, err := openPack(pack, &buf)
	if err != nil {
		t.Fatalf("openPack: %v", err)
	}
	if !strings.Contains(buf.String(), "mmap") {
		t.Errorf("load output %q, want mention of mmap", buf.String())
	}
	if p.DB.Layout() == nil {
		t.Error("pack loaded without a lane layout")
	}
	if err := p.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	buf.Reset()
	err = indexCmd([]string{"-format", "v1", "-o", pack}, &buf)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -format") {
		t.Errorf("index -format v1: err %v, want an undefined-flag failure", err)
	}
}

func TestServeCmdBadPacks(t *testing.T) {
	good, err := os.ReadFile(buildTestPack(t))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, blob []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	// The file ends with the last section's last byte (the middle of a
	// small pack is inter-section padding, which no checksum covers).
	corrupt := append([]byte(nil), good...)
	corrupt[len(corrupt)-1] ^= 0x55

	// A stale-format pack: bump the u32 format version after the magic.
	stale := append([]byte(nil), good...)
	stale[8]++

	// What the retired `index -word 11` wrote into the header.
	wordIndexed := append([]byte(nil), good...)
	wordIndexed[16] = 11

	cases := []struct {
		name string
		path string
		want string
	}{
		{"missing", filepath.Join(dir, "nope.pack"), "no such file"},
		{"not a pack", write("junk.pack", []byte("this is not a pack at all")), "bad magic"},
		{"corrupt", write("corrupt.pack", corrupt), "checksum"},
		{"truncated", write("short.pack", good[:len(good)/3]), "truncated"},
		{"stale version", write("stale.pack", stale), "format version"},
		{"legacy word index", write("word.pack", wordIndexed), "re-run `genomedsm index`"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf syncBuffer
			err := serveCmd([]string{"-pack", tc.path, "-addr", "127.0.0.1:0"}, &buf)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err %v, want mention of %q", err, tc.want)
			}
		})
	}
}

func TestServeCmdPortInUse(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var buf syncBuffer
	err = serveCmd([]string{"-pack", buildTestPack(t), "-addr", ln.Addr().String()}, &buf)
	if err == nil || !strings.Contains(err.Error(), "address already in use") {
		t.Errorf("err %v, want address-in-use failure before serving", err)
	}
}

// TestServeCmdGracefulShutdown drives the full service lifecycle in
// process: serve a pack, answer a query, then SIGTERM — the in-flight
// query drains to a real answer and the command exits cleanly.
func TestServeCmdGracefulShutdown(t *testing.T) {
	addrCh := make(chan string, 1)
	serveReady = func(addr string) { addrCh <- addr }
	defer func() { serveReady = nil }()

	var buf syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- serveCmd([]string{"-pack", buildTestPack(t), "-addr", "127.0.0.1:0", "-queue", "4"}, &buf)
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case err := <-done:
		t.Fatalf("serve exited before listening: %v\n%s", err, buf.String())
	}

	// One query in flight while the signal lands: its response must
	// still arrive (drain), not be cut off.
	reqDone := make(chan int, 1)
	go func() {
		resp, err := http.Post("http://"+addr+"/search", "application/json",
			strings.NewReader(`{"query":"ACGTACGTACGTACGTACGTACGT","top_k":3}`))
		if err != nil {
			reqDone <- -1
			return
		}
		resp.Body.Close()
		reqDone <- resp.StatusCode
	}()
	time.Sleep(10 * time.Millisecond)
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if status := <-reqDone; status != http.StatusOK {
		t.Errorf("in-flight query answered %d, want 200", status)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve exited with %v\n%s", err, buf.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not exit after SIGTERM")
	}
	out := buf.String()
	for _, want := range []string{"serving 16 records", "listening on http://", "draining", "drained"} {
		if !strings.Contains(out, want) {
			t.Errorf("serve output missing %q:\n%s", want, out)
		}
	}
}

// TestServeHTTPTimeouts pins the read-header and idle timeouts on the
// http.Server serve runs its handler on: without them a client trickling
// headers, or idling on a kept-alive connection, holds it for ever.
func TestServeHTTPTimeouts(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout != serveReadHeaderTimeout || hs.IdleTimeout != serveIdleTimeout {
		t.Fatalf("serve's http.Server has ReadHeaderTimeout %v, IdleTimeout %v; want %v, %v",
			hs.ReadHeaderTimeout, hs.IdleTimeout, serveReadHeaderTimeout, serveIdleTimeout)
	}
	if serveReadHeaderTimeout <= 0 || serveIdleTimeout <= 0 {
		t.Fatalf("serve timeouts %v, %v: both must be set", serveReadHeaderTimeout, serveIdleTimeout)
	}
}
