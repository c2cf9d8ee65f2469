// Package dispatch routes the two routed exact-alignment workloads of
// the repo to an exact kernel by a fixed rule: the lane groups of a
// database scan, and the bands of the pre-process strategy. The rule is
// a pure function of its inputs, computed before the scan starts, as
// the source paper computes each processor's share:
//
//   - every lane group of a database scan starts on the inter-sequence
//     int8 ladder (ModeScalar aside); the §5.6 ladder retries flagged
//     lanes at int16 and then scalar, so saturation costs one cheap
//     narrow pass, never a prediction (router.go);
//   - a pre-process band narrower than a word runs the scalar column
//     loop, a wider one the striped band kernel.
//
// A pairwise scan takes no route: swar.(*Aligner).ScanPair runs one
// target down the same lane ladder, and align.Scan is the scalar oracle.
// No rule reads a kernel table or a measurement of this host.
//
// Routing never changes results: every route ends in the same
// exact-or-flagged ladder, so scores, coordinates and tie-breaks are
// bit-identical across routes and only the time to produce them varies.
// The differential and fuzz suites (FuzzDispatchVsScalar) pin exactly
// that, including adversarially forced mis-routes.
package dispatch

import (
	"fmt"
	"sync/atomic"
)

// Mode selects how much freedom the router has.
type Mode int

const (
	// ModeAuto routes each workload by the package's fixed rule.
	ModeAuto Mode = iota
	// ModeScalar forces the exact scalar kernels everywhere (reference
	// and benchmarking).
	ModeScalar
)

// ParseMode maps the CLI spelling to a Mode; the empty string means
// auto. "fixed", the spelling of a retired mode that HTTP clients and
// scripts still send, is an alias of auto.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "auto", "fixed":
		return ModeAuto, nil
	case "scalar":
		return ModeScalar, nil
	}
	return 0, fmt.Errorf("dispatch: unknown mode %q (want auto, fixed or scalar)", s)
}

// String returns the CLI spelling of m.
func (m Mode) String() string {
	if m == ModeScalar {
		return "scalar"
	}
	return "auto"
}

// GroupRoute is the router's verdict for one lane group of a database
// scan.
type GroupRoute int

const (
	// GroupInter8 scans the group with the inter-sequence int8 SWAR
	// kernel and its int16 → scalar fallback ladder.
	GroupInter8 GroupRoute = iota
	// GroupInter16 starts the group directly at the int16 kernel (two
	// 4-lane words per 8-record group). Only ForceGroup picks it.
	GroupInter16
	// GroupScalar runs the exact scalar kernel per record.
	GroupScalar
)

// String returns a short label for logging and tests.
func (r GroupRoute) String() string {
	switch r {
	case GroupInter8:
		return "inter8"
	case GroupInter16:
		return "inter16"
	}
	return "scalar"
}

// active is the process-wide router consulted by call sites that have
// no per-scan router of their own (the pre-process band loop). It defaults to ModeAuto until something (the
// CLI -dispatch flag, a test) installs another.
var active atomic.Pointer[Router]

// Active returns the process-wide router, never nil.
func Active() *Router {
	if r := active.Load(); r != nil {
		return r
	}
	r := New(ModeAuto, nil)
	if active.CompareAndSwap(nil, r) {
		return r
	}
	return active.Load()
}

// SetActive installs the process-wide router; nil resets to the auto
// default.
func SetActive(r *Router) {
	if r == nil {
		active.Store(New(ModeAuto, nil))
		return
	}
	active.Store(r)
}
