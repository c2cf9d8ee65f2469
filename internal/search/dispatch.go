package search

import (
	"genomedsm/internal/bio"
	"genomedsm/internal/dispatch"
	"genomedsm/internal/swar"
)

// This file connects the database scan to internal/dispatch: the one
// group scorer asks the router for a route per lane group, maps it to
// the rung the swar ladder starts at, and reports what the ladder
// observed back so the router's retry prediction tracks the database
// actually being scanned. Every route resolves through the same
// exact-or-flagged ladder, so the hit set is bit-identical across
// routes — only the padded-cell cost differs.

// routerFor builds the scan router for one Run: a caller-provided
// shared router (Options.Router) wins — the resident server's
// calibrated one, or a test's forced mis-route — then one built from
// the Dispatch mode.
func routerFor(opt Options) (*dispatch.Router, error) {
	if opt.Router != nil {
		return opt.Router, nil
	}
	mode, err := dispatch.ParseMode(opt.Dispatch)
	if err != nil {
		return nil, err
	}
	if mode == dispatch.ModeAuto {
		// Auto routes by the per-process calibrated profile (probed once,
		// in memory; the CLI may pre-seed it from its on-disk cache).
		return dispatch.New(mode, dispatch.Host()), nil
	}
	return dispatch.New(mode, nil), nil
}

// startRung maps the router's verdict for a lane group to the rung the
// ladder starts at.
var startRung = [...]swar.Rung{
	dispatch.GroupInter8:  swar.RungInter8,
	dispatch.GroupInter16: swar.RungInter16,
	dispatch.GroupSingles: swar.RungSingles,
	dispatch.GroupScalar:  swar.RungScalar,
}

// scoreGroup is the one group scorer: it scores a lane group down the
// route the scan state picks, under an optional pruning bound (nil ab =
// unpruned), and feeds the ladder's saturation evidence back into the
// scan state. Results are bit-exact for every route, including forced
// mis-routes. lens holds the targets' lengths; a non-nil gp supplies
// the group's shared prebuilt int8 profile, built only when the route
// starts at the int8 rung.
func scoreGroup(al *swar.Aligner, q bio.Sequence, targets []bio.Sequence, lens []int, sc bio.Scoring, st *dispatch.ScanState, ab *swar.Bound, gp *groupProf) swar.GroupResult {
	route := st.Group(len(q), lens, sc)
	var prof *bio.PackedProfile
	if route == dispatch.GroupInter8 && gp != nil {
		prof = gp.profile()
	}
	res := al.Ladder(q, targets, sc, startRung[route], ab, prof)

	if route == dispatch.GroupInter8 {
		// A completed int8 pass is full evidence: count the lanes that
		// could saturate and those that did. A refused or abandoned pass
		// is none — a partial scan proves nothing about saturation over
		// the full matrix — and the int16 retry of the flagged lanes never
		// observes them a second time.
		if res.Done8 {
			possible, flagged := 0, 0
			for l, n := range lens {
				if dispatch.SatPossible8(len(q), n, sc) {
					possible++
					if res.Sat8&(1<<uint(l)) != 0 {
						flagged++
					}
				}
			}
			st.Observe8(possible, flagged)
		}
		return res
	}
	// The group was taken AWAY from the int8 rung: each completed
	// (unpruned) exact score proves whether an int8 scan would have
	// saturated, so the observed rate can recover after a burst of
	// saturating records — without this, a high rate routes everything
	// to int16, int16 passes produce no int8 evidence, and the estimate
	// would stay stuck at its peak for the rest of the scan.
	for i, n := range lens {
		if res.Pruned&(1<<uint(i)) == 0 && dispatch.SatPossible8(len(q), n, sc) {
			flagged := 0
			if res.Scores[i] > bio.PackedCap8 {
				flagged = 1
			}
			st.Observe8(1, flagged)
		}
	}
	return res
}
