package phase2

import (
	"testing"

	"genomedsm/internal/cluster"
)

// MakeJobs hands makeJobs to the external phase2_test package
// (chaos_test.go), which cannot live here: internal/chaos imports phase2.
var MakeJobs = makeJobs

func TestLockQueueMatchesScattered(t *testing.T) {
	s, tt, jobs := makeJobs(t, 353, 4000, 10)
	want, err := Run(4, cluster.Zero(), s, tt, sc, jobs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunLockQueue(4, cluster.Zero(), s, tt, sc, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		w, g := want.Alignments[i], got.Alignments[i]
		if g == nil {
			t.Fatalf("job %d missing", i)
		}
		if w.Score != g.Score || w.SBegin != g.SBegin || w.TEnd != g.TEnd {
			t.Errorf("job %d differs: %+v vs %+v", i, w, g)
		}
	}
}

func TestLockQueueUsesLocksScatteredDoesNot(t *testing.T) {
	s, tt, jobs := makeJobs(t, 359, 3000, 8)
	scat, err := Run(4, cluster.Zero(), s, tt, sc, jobs)
	if err != nil {
		t.Fatal(err)
	}
	lq, err := RunLockQueue(4, cluster.Zero(), s, tt, sc, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if scat.Stats.LockAcquires != 0 {
		t.Errorf("scattered mapping acquired %d locks", scat.Stats.LockAcquires)
	}
	// One acquisition per job plus one terminating pop per node.
	if lq.Stats.LockAcquires < int64(len(jobs)) {
		t.Errorf("lock queue acquired %d locks for %d jobs", lq.Stats.LockAcquires, len(jobs))
	}
}

func TestLockQueueValidation(t *testing.T) {
	s, tt, _ := makeJobs(t, 373, 500, 1)
	if _, err := RunLockQueue(0, cluster.Zero(), s, tt, sc, nil); err == nil {
		t.Error("nprocs=0 accepted")
	}
	if _, err := RunLockQueue(1, cluster.Zero(), s, tt, sc, []Job{{0, 1, 1, 1}}); err == nil {
		t.Error("bad job accepted")
	}
	res, err := RunLockQueue(2, cluster.Zero(), s, tt, sc, nil)
	if err != nil || len(res.Alignments) != 0 {
		t.Errorf("empty jobs: %v %v", res, err)
	}
}
