package search

import (
	"genomedsm/internal/bio"
	"genomedsm/internal/dispatch"
	"genomedsm/internal/swar"
)

// This file connects the database scan to internal/dispatch: the one
// group scorer asks the router for a route per lane group and maps it
// to the rung the swar ladder starts at. Every route resolves through
// the same exact-or-flagged ladder, so the hit set is bit-identical
// across routes — only the padded-cell cost differs.

// routerFor builds the scan router for one Run: a caller-provided
// shared router (Options.Router) wins — the resident server's, or a
// test's forced mis-route — then one built from the Dispatch mode.
func routerFor(opt Options) (*dispatch.Router, error) {
	if opt.Router != nil {
		return opt.Router, nil
	}
	mode, err := dispatch.ParseMode(opt.Dispatch)
	if err != nil {
		return nil, err
	}
	return dispatch.New(mode, nil), nil
}

// startRung maps the router's verdict for a lane group to the rung the
// ladder starts at.
var startRung = [...]swar.Rung{
	dispatch.GroupInter8:  swar.RungInter8,
	dispatch.GroupInter16: swar.RungInter16,
	dispatch.GroupScalar:  swar.RungScalar,
}

// scoreGroup is the one group scorer: it scores a lane group down the
// route r picks, under an optional pruning bound (nil ab = unpruned).
// Results are bit-exact for every route, including forced mis-routes.
// lens holds the targets' lengths; a non-nil gp supplies the group's
// shared code words (groupProf.use must have named the targets).
func scoreGroup(al *swar.Aligner, q bio.Sequence, targets []bio.Sequence, lens []int, sc bio.Scoring, r *dispatch.Router, ab *swar.Bound, gp *groupProf) swar.GroupResult {
	var cw swar.Codes
	if gp != nil {
		cw = gp
	}
	return al.Ladder(q, targets, sc, startRung[r.Group(len(q), lens)], ab, cw)
}
