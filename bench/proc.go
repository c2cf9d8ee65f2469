package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// live tracks every child process group the benchmark started, so that
// any exit path — return, error, signal — can kill what is left.
var live struct {
	sync.Mutex
	pgids map[int]bool
}

func trackProc(pgid int) {
	live.Lock()
	defer live.Unlock()
	if live.pgids == nil {
		live.pgids = make(map[int]bool)
	}
	live.pgids[pgid] = true
}

func untrackProc(pgid int) {
	live.Lock()
	defer live.Unlock()
	delete(live.pgids, pgid)
}

// killAll kills every tracked process group. The groups' leaders are
// direct children, reaped by their own Wait or by init once we exit.
func killAll() {
	live.Lock()
	defer live.Unlock()
	for pgid := range live.pgids {
		_ = syscall.Kill(-pgid, syscall.SIGKILL) // already gone is fine
	}
}

// command prepares a child in its own process group.
func command(env []string, name string, args ...string) *exec.Cmd {
	cmd := exec.Command(name, args...)
	cmd.Env = append(os.Environ(), env...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	return cmd
}

// runTool runs a child to completion; its output only matters when it
// fails.
func runTool(dir, name string, args ...string) error {
	cmd := command(nil, name, args...)
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		return err
	}
	trackProc(cmd.Process.Pid)
	err := cmd.Wait()
	untrackProc(cmd.Process.Pid)
	if err != nil {
		return fmt.Errorf("%s %s: %w\n%s", name, strings.Join(args, " "), err, out.Bytes())
	}
	return nil
}

// buildBinary compiles cmd/genomedsm from the checkout's source into
// out/bin. The Go build cache makes every build after the first a
// link-or-nothing step.
func buildBinary(repoRoot, outDir string) (string, error) {
	bin := filepath.Join(outDir, "bin", "genomedsm")
	if err := runTool(repoRoot, "go", "build", "-o", bin, "./cmd/genomedsm"); err != nil {
		return "", err
	}
	return bin, nil
}

// serveProc is one running `genomedsm serve`.
type serveProc struct {
	cmd     *exec.Cmd
	url     string
	started time.Time
	ready   time.Time // "listening on" line seen
	output  *lockedBuffer
	exited  chan struct{}
	waitErr error
}

type lockedBuffer struct {
	sync.Mutex
	bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.Lock()
	defer b.Unlock()
	return b.Buffer.Write(p)
}

func (b *lockedBuffer) String() string {
	b.Lock()
	defer b.Unlock()
	return b.Buffer.String()
}

const listenPrefix = "listening on "

// startServe execs `genomedsm serve -pack … -addr 127.0.0.1:0` with the
// dispatch cache pointed at cacheDir and returns once the listener's
// address was printed.
func startServe(bin, pack, cacheDir string, extra ...string) (*serveProc, error) {
	args := append([]string{"serve", "-pack", pack, "-addr", "127.0.0.1:0"}, extra...)
	cmd := command([]string{"GENOMEDSM_DISPATCH_CACHE=" + cacheDir}, bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	p := &serveProc{cmd: cmd, output: &lockedBuffer{}, exited: make(chan struct{})}
	cmd.Stderr = p.output
	p.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	trackProc(cmd.Process.Pid)

	addr := make(chan string, 1)
	go func() {
		defer close(p.exited)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, listenPrefix) {
				select {
				case addr <- strings.TrimPrefix(line, listenPrefix):
				default:
				}
			}
			fmt.Fprintln(p.output, line)
		}
		p.waitErr = cmd.Wait()
		untrackProc(cmd.Process.Pid)
	}()

	select {
	case p.url = <-addr:
		p.ready = time.Now()
		return p, nil
	case <-p.exited:
		return nil, fmt.Errorf("serve exited before listening: %v\n%s", p.waitErr, p.output.String())
	case <-time.After(30 * time.Second):
		p.kill()
		return nil, fmt.Errorf("serve did not listen within 30s\n%s", p.output.String())
	}
}

// kill ends the process group at once; on an exited process it does
// nothing.
func (p *serveProc) kill() {
	select {
	case <-p.exited:
		return
	default:
	}
	_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
	<-p.exited
}

// stop sends SIGTERM and waits for the drain; it returns how long the
// process took to exit.
func (p *serveProc) stop() (time.Duration, error) {
	t0 := time.Now()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.kill()
		return 0, fmt.Errorf("SIGTERM: %w", err)
	}
	select {
	case <-p.exited:
	case <-time.After(40 * time.Second):
		p.kill()
		return 0, errors.New("serve did not drain within 40s")
	}
	if p.waitErr != nil {
		return 0, fmt.Errorf("serve exited uncleanly: %w\n%s", p.waitErr, p.output.String())
	}
	return time.Since(t0), nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func (p *serveProc) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// post sends one request body and returns the fully read response body;
// any status but 200 is an error.
func post(c *http.Client, url string, body []byte) ([]byte, error) {
	resp, err := c.Post(url+"/search", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %d: %s", resp.StatusCode, raw)
	}
	return raw, err
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}, Timeout: 60 * time.Second}
}
