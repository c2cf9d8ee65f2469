package dispatch

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync/atomic"
)

// ProfileVersion is bumped whenever the probe set or the meaning of the
// stored numbers changes; cached profiles with another version are
// re-probed.
const ProfileVersion = 2

// cacheEnv overrides the on-disk cache location (a directory); tests
// point it at a temp dir so nothing outside the sandbox is written.
const cacheEnv = "GENOMEDSM_DISPATCH_CACHE"

// FamilyStats is one kernel family's calibrated cost model: time for a
// scan of c cells ≈ OverheadNS + c / (MCells · 1e6 / 1e9) nanoseconds.
// MCells counts useful (unpadded) cells per second at the family's full
// lane occupancy; OverheadNS is the per-call setup cost (profile
// construction, row buffers), which is what makes the scalar kernel win
// on tiny inputs despite its lower throughput.
type FamilyStats struct {
	MCells     float64 `json:"mcells_per_second"`
	OverheadNS float64 `json:"overhead_ns"`
}

// seconds returns the modeled wall time of one call over cells cells.
func (f FamilyStats) seconds(cells float64) float64 {
	if f.MCells <= 0 {
		return f.OverheadNS / 1e9
	}
	return f.OverheadNS/1e9 + cells/(f.MCells*1e6)
}

// Kernel family keys of the calibration table.
const (
	FamScalar    = "scalar"
	FamInter8    = "inter8"
	FamInter16   = "inter16"
	FamStriped8  = "striped8"
	FamStriped16 = "striped16"
	FamBand      = "band"
)

// Families lists every probed family in display order.
var Families = []string{FamScalar, FamInter8, FamInter16, FamStriped8, FamStriped16, FamBand}

// Profile is one host's calibrated kernel table. It is immutable after
// construction and safe to share between goroutines.
type Profile struct {
	Version  int                    `json:"version"`
	Host     string                 `json:"host"`
	Build    string                 `json:"build"`
	Families map[string]FamilyStats `json:"families"`
}

// Stats returns the named family's stats, falling back to the static
// default table for unknown names so the router never divides by zero.
func (p *Profile) Stats(name string) FamilyStats {
	if p != nil {
		if st, ok := p.Families[name]; ok && st.MCells > 0 {
			return st
		}
	}
	return defaultStats[name]
}

// defaultStats is the static fallback table: the committed benchmark
// snapshot of the dev machine, used when calibration is skipped or a
// family's probe failed. Ratios, not absolutes, drive routing, so a
// stale table degrades routing quality but never correctness. The
// packed families are therefore recorded as their measured ratio to
// the scalar kernel in the same benchmark run (EXPERIMENTS.md, "Two
// rows per pass": inter8 4.6×, inter16 2.6×, striped8 3.4×, striped16
// 1.5×) times the scalar row, not as absolutes from a faster day of
// the shared host.
var defaultStats = map[string]FamilyStats{
	FamScalar:    {MCells: 360, OverheadNS: 2500},
	FamInter8:    {MCells: 1650, OverheadNS: 6000},
	FamInter16:   {MCells: 950, OverheadNS: 4000},
	FamStriped8:  {MCells: 1200, OverheadNS: 5000},
	FamStriped16: {MCells: 540, OverheadNS: 5000},
	FamBand:      {MCells: 1050, OverheadNS: 5000},
}

// DefaultProfile returns the static table wrapped as a Profile for the
// current host.
func DefaultProfile() *Profile {
	fams := make(map[string]FamilyStats, len(defaultStats))
	for k, v := range defaultStats {
		fams[k] = v
	}
	return &Profile{Version: ProfileVersion, Host: hostSignature(), Build: buildSignature(), Families: fams}
}

// hostSignature identifies the machine a profile was measured on.
// Calibration numbers do not transfer across hosts, architectures or
// core counts, so any mismatch invalidates a cached profile.
func hostSignature() string {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown"
	}
	return fmt.Sprintf("%s/%s/%s/cpu%d", host, runtime.GOOS, runtime.GOARCH, runtime.NumCPU())
}

// buildSignature identifies the binary the profile was measured with:
// kernel code generation shifts between toolchains and module versions,
// so a cached profile from another build is re-probed.
func buildSignature() string {
	sig := runtime.Version()
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
			sig += "/" + bi.Main.Version
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				sig += "/" + s.Value
			}
		}
	}
	return sig
}

// validFor reports whether p was measured by this exact probe set, on
// this host, with this build, and carries every family.
func (p *Profile) validFor(host, build string) error {
	switch {
	case p == nil:
		return fmt.Errorf("dispatch: nil profile")
	case p.Version != ProfileVersion:
		return fmt.Errorf("dispatch: profile version %d, want %d", p.Version, ProfileVersion)
	case p.Host != host:
		return fmt.Errorf("dispatch: profile host %q, running on %q", p.Host, host)
	case p.Build != build:
		return fmt.Errorf("dispatch: profile build %q, running %q", p.Build, build)
	}
	for _, fam := range Families {
		st, ok := p.Families[fam]
		if !ok || st.MCells <= 0 || st.OverheadNS < 0 {
			return fmt.Errorf("dispatch: profile missing family %q", fam)
		}
	}
	return nil
}

// CachePath returns the on-disk location of the calibration cache:
// $GENOMEDSM_DISPATCH_CACHE/dispatch.json when the env var is set,
// otherwise <user cache dir>/genomedsm/dispatch.json.
func CachePath() (string, error) {
	if dir := os.Getenv(cacheEnv); dir != "" {
		return filepath.Join(dir, "dispatch.json"), nil
	}
	dir, err := os.UserCacheDir()
	if err != nil {
		return "", fmt.Errorf("dispatch: no cache dir: %w", err)
	}
	return filepath.Join(dir, "genomedsm", "dispatch.json"), nil
}

// Load reads and validates a cached profile. Any defect — unreadable
// file, corrupt JSON, stale version, foreign host or build, missing
// families — is an error; callers fall back to re-probing.
func Load(path string) (*Profile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p Profile
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, fmt.Errorf("dispatch: corrupt profile %s: %w", path, err)
	}
	if err := p.validFor(hostSignature(), buildSignature()); err != nil {
		return nil, err
	}
	return &p, nil
}

// Save writes the profile atomically (temp file + rename), creating the
// cache directory as needed.
func (p *Profile) Save(path string) error {
	raw, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "dispatch-*.json")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(raw, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadOrCalibrate returns the cached profile when it is valid for this
// host and build, otherwise re-probes and (best effort) refreshes the
// cache. fromCache reports which happened.
func LoadOrCalibrate(path string) (p *Profile, fromCache bool) {
	if p, err := Load(path); err == nil {
		return p, true
	}
	p = Calibrate()
	_ = p.Save(path) // cache is an optimization; failure to write is not
	return p, false
}

// hostProf caches the in-memory calibration of this process: library
// callers (search auto mode, tests) get calibrated routing without any
// disk traffic; only the CLI opts into the on-disk cache.
var hostProf atomic.Pointer[Profile]

// Host returns this process's calibrated profile, probing on first use.
// It never touches the disk. Concurrent first calls may probe more than
// once (a few milliseconds each, results equivalent); exactly one wins.
func Host() *Profile {
	if p := hostProf.Load(); p != nil {
		return p
	}
	p := Calibrate()
	if hostProf.CompareAndSwap(nil, p) {
		return p
	}
	return hostProf.Load()
}

// SetHostProfile installs p as the process profile returned by Host():
// the CLI uses it to share its on-disk cached calibration with every
// library layer. A nil p re-enables lazy calibration.
func SetHostProfile(p *Profile) { hostProf.Store(p) }

// TableRows renders the profile as ordered (family, Mcells/s,
// overhead-ns) rows for the CLI -calibrate report.
func (p *Profile) TableRows() [][3]string {
	names := make([]string, 0, len(p.Families))
	for name := range p.Families {
		names = append(names, name)
	}
	sort.Strings(names)
	rows := make([][3]string, 0, len(names))
	for _, name := range names {
		st := p.Families[name]
		rows = append(rows, [3]string{name,
			fmt.Sprintf("%.1f", st.MCells),
			fmt.Sprintf("%.0f", st.OverheadNS)})
	}
	return rows
}
