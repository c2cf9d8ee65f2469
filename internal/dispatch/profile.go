package dispatch

// FamilyStats is one kernel family's calibrated cost model: time for a
// scan of c cells ≈ OverheadNS + c / (MCells · 1e6 / 1e9) nanoseconds.
// MCells counts useful (unpadded) cells per second at the family's full
// lane occupancy; OverheadNS is the per-call setup cost (profile
// construction, row buffers), which is what makes the scalar kernel win
// on tiny inputs despite its lower throughput.
type FamilyStats struct {
	MCells     float64
	OverheadNS float64
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
	FamStriped8  = "striped8"
	FamStriped16 = "striped16"
	FamBand      = "band"
)

// Families lists every probed family.
var Families = []string{FamScalar, FamStriped8, FamStriped16, FamBand}

// Profile is a kernel table: the committed default, or one Calibrate
// measured. It is immutable after construction and safe to share
// between goroutines.
type Profile struct {
	Families map[string]FamilyStats
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

// defaultStats is the committed kernel table every router reads: the
// benchmark snapshot of the dev machine. Ratios, not absolutes, drive
// the Pair and Band rules, so a stale table degrades routing quality but
// never correctness. The striped families are therefore recorded as
// their measured ratio to the scalar kernel in the same benchmark run
// (EXPERIMENTS.md, "Two rows per pass": striped8 3.4×, striped16 1.5×)
// times the scalar row, not as absolutes from a faster day of the
// shared host.
var defaultStats = map[string]FamilyStats{
	FamScalar:    {MCells: 360, OverheadNS: 2500},
	FamStriped8:  {MCells: 1200, OverheadNS: 5000},
	FamStriped16: {MCells: 540, OverheadNS: 5000},
	FamBand:      {MCells: 1050, OverheadNS: 5000},
}

// DefaultProfile returns the committed table wrapped as a Profile.
func DefaultProfile() *Profile {
	fams := make(map[string]FamilyStats, len(defaultStats))
	for k, v := range defaultStats {
		fams[k] = v
	}
	return &Profile{Families: fams}
}

// Host returns the profile routers use on this host: the committed
// table. No start path probes.
func Host() *Profile { return DefaultProfile() }
