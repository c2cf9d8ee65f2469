// Command benchdiff maintains the kernel benchmark snapshot file
// (BENCH_kernels.json) and gates regressions against it.
//
// It reads `go test -bench` output on stdin and either records it as a
// named snapshot or checks it against a stored baseline:
//
//	go test -run '^$' -bench Kernel -count 5 . | benchdiff -snapshot current
//	go test -run '^$' -bench Kernel -count 5 . | benchdiff -check
//	benchdiff -diff seed current
//	benchdiff -list
//
// Repeated runs of the same benchmark (from -count N) collapse to the
// best observation — maximum for throughput metrics, minimum for ns/op —
// which is the standard way to strip scheduler noise from shared
// machines. -check compares the preferred throughput metric (cells/s,
// falling back to MB/s, falling back to inverted ns/op) and exits
// non-zero when any benchmark is slower than baseline by more than
// -max-regress percent (default 5). The older -tol flag is the same
// limit as a fraction and is kept for compatibility; when both are
// given, -max-regress wins.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Metrics maps a metric unit ("ns/op", "MB/s", "cells/s", ...) to its
// best observed value for one benchmark.
type Metrics map[string]float64

// Snapshot maps a benchmark name (without the Benchmark prefix and
// GOMAXPROCS suffix) to its metrics.
type Snapshot map[string]Metrics

// File is the on-disk shape of BENCH_kernels.json.
type File struct {
	Snapshots map[string]Snapshot `json:"snapshots"`
}

// lowerIsBetter reports whether smaller values of the unit are faster.
func lowerIsBetter(unit string) bool {
	return strings.HasSuffix(unit, "/op")
}

// parseBench extracts benchmark results from `go test -bench` output,
// collapsing repeated runs of the same benchmark to the best value per
// metric.
func parseBench(r io.Reader) (Snapshot, error) {
	snap := Snapshot{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(f[0], "Benchmark")
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			// Strip the -GOMAXPROCS suffix so snapshots from machines
			// with different core counts stay comparable.
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		// f[1] is the iteration count; value/unit pairs follow.
		m := snap[name]
		if m == nil {
			m = Metrics{}
			snap[name] = m
		}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			unit := f[i+1]
			old, seen := m[unit]
			if !seen || (lowerIsBetter(unit) && v < old) || (!lowerIsBetter(unit) && v > old) {
				m[unit] = v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return snap, nil
}

// throughput picks the metric used for regression checks: cells/s when
// reported, else MB/s, else the inverse of ns/op (ops/ns). The second
// return is the unit label.
func throughput(m Metrics) (float64, string, bool) {
	if v, ok := m["cells/s"]; ok {
		return v, "cells/s", true
	}
	if v, ok := m["MB/s"]; ok {
		return v, "MB/s", true
	}
	if v, ok := m["ns/op"]; ok && v > 0 {
		return 1 / v, "op/ns", true
	}
	return 0, "", false
}

// commonThroughput picks the best throughput metric present in both
// metric sets, so snapshots recorded before a new metric existed stay
// comparable (e.g. a seed snapshot with only MB/s against a current one
// that also reports cells/s).
func commonThroughput(a, b Metrics) (av, bv float64, unit string, ok bool) {
	for _, u := range []string{"cells/s", "MB/s"} {
		x, okA := a[u]
		y, okB := b[u]
		if okA && okB {
			return x, y, u, true
		}
	}
	x, okA := a["ns/op"]
	y, okB := b["ns/op"]
	if okA && okB && x > 0 && y > 0 {
		return 1 / x, 1 / y, "op/ns", true
	}
	return 0, 0, "", false
}

// check compares cur against base and returns one line per benchmark
// plus the list of regressions beyond tol. Benchmarks present in only
// one snapshot are reported as added or removed but are never
// regressions: a snapshot taken before a benchmark existed must not
// fail the gate, and neither must retiring one.
func check(base, cur Snapshot, tol float64) (lines []string, regressions []string) {
	for _, name := range sortedKeys(cur) {
		bm, ok := base[name]
		if !ok {
			lines = append(lines, fmt.Sprintf("%-30s (added: no baseline yet)", name))
			continue
		}
		bv, cv, unit, ok := commonThroughput(bm, cur[name])
		if !ok || bv <= 0 {
			continue
		}
		ratio := cv / bv
		status := "ok"
		if ratio < 1-tol {
			status = "REGRESSION"
			regressions = append(regressions, name)
		}
		lines = append(lines, fmt.Sprintf("%-30s %12.4g -> %12.4g %-8s %6.2fx  %s",
			name, bv, cv, unit, ratio, status))
	}
	for _, name := range sortedKeys(base) {
		if _, ok := cur[name]; !ok {
			lines = append(lines, fmt.Sprintf("%-30s (removed: only in baseline)", name))
		}
	}
	return lines, regressions
}

func sortedKeys(s Snapshot) []string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func loadFile(path string) (*File, error) {
	f := &File{Snapshots: map[string]Snapshot{}}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return f, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Snapshots == nil {
		f.Snapshots = map[string]Snapshot{}
	}
	return f, nil
}

func saveFile(path string, f *File) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	var (
		file       = flag.String("file", "BENCH_kernels.json", "snapshot file")
		snapshot   = flag.String("snapshot", "", "record stdin bench output under this snapshot name")
		doCheck    = flag.Bool("check", false, "check stdin bench output against the baseline snapshot")
		baseline   = flag.String("baseline", "current", "baseline snapshot name for -check")
		maxRegress = flag.Float64("max-regress", 5, "allowed per-benchmark throughput regression for -check, in percent")
		tol        = flag.Float64("tol", 0.05, "deprecated fractional form of -max-regress")
		doList     = flag.Bool("list", false, "list stored snapshots")
		diff       = flag.Bool("diff", false, "compare two stored snapshots given as arguments: benchdiff -diff OLD NEW")
	)
	flag.Parse()
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	tolerance := resolveTolerance(*maxRegress, *tol, explicit)

	f, err := loadFile(*file)
	if err != nil {
		fatal(err)
	}

	switch {
	case *snapshot != "":
		snap, err := parseBench(os.Stdin)
		if err != nil {
			fatal(err)
		}
		if len(snap) == 0 {
			fatal(fmt.Errorf("no benchmark lines on stdin"))
		}
		f.Snapshots[*snapshot] = snap
		if err := saveFile(*file, f); err != nil {
			fatal(err)
		}
		fmt.Printf("recorded %d benchmarks as %q in %s\n", len(snap), *snapshot, *file)

	case *doCheck:
		base, ok := f.Snapshots[*baseline]
		if !ok {
			fatal(fmt.Errorf("%s: no snapshot %q (have %v)", *file, *baseline, mapKeys(f.Snapshots)))
		}
		cur, err := parseBench(os.Stdin)
		if err != nil {
			fatal(err)
		}
		if len(cur) == 0 {
			fatal(fmt.Errorf("no benchmark lines on stdin"))
		}
		lines, regressions := check(base, cur, tolerance)
		for _, l := range lines {
			fmt.Println(l)
		}
		if len(regressions) > 0 {
			fmt.Fprintf(os.Stderr, "benchdiff: %d regression(s) beyond %.0f%%: %s\n",
				len(regressions), tolerance*100, strings.Join(regressions, ", "))
			os.Exit(1)
		}

	case *diff:
		args := flag.Args()
		if len(args) != 2 {
			fatal(fmt.Errorf("-diff needs two snapshot names"))
		}
		old, ok := f.Snapshots[args[0]]
		if !ok {
			fatal(fmt.Errorf("no snapshot %q", args[0]))
		}
		cur, ok := f.Snapshots[args[1]]
		if !ok {
			fatal(fmt.Errorf("no snapshot %q", args[1]))
		}
		lines, _ := check(old, cur, math.Inf(1))
		for _, l := range lines {
			fmt.Println(l)
		}

	case *doList:
		for _, name := range mapKeys(f.Snapshots) {
			fmt.Printf("%s: %d benchmarks\n", name, len(f.Snapshots[name]))
		}

	default:
		flag.Usage()
		os.Exit(2)
	}
}

// resolveTolerance merges the two regression-limit flags: -max-regress
// is the canonical knob (percent), -tol the fractional spelling older
// scripts used. An explicit -max-regress wins, an explicit -tol alone
// is honoured, otherwise the -max-regress default applies. explicit
// holds the flag names actually given on the command line.
func resolveTolerance(maxRegress, tol float64, explicit map[string]bool) float64 {
	if explicit["tol"] && !explicit["max-regress"] {
		return tol
	}
	return maxRegress / 100
}

func mapKeys(m map[string]Snapshot) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
