package experiments

import "testing"

// TestRestripeExperimentKillsHaloTraffic is the restripe PR's acceptance
// criterion: with online restriping enabled, the dependent-halo bytes the
// first round pays drop to zero after the background migration, the
// previously rejected DAS offload flips to accepted, every round of every
// variant is verified byte-identical (by the runner), and a migration
// interrupted by a mid-copy crash resumes from its cursor.
func TestRestripeExperimentKillsHaloTraffic(t *testing.T) {
	c := quick()
	c.RestripeRounds = 3
	r, recs := execute(t, c, restripeExperiment)
	if len(recs) != 5 {
		t.Fatalf("got %d scenarios, want 4 variants and the crash demo", len(recs))
	}
	nas, nasRe, dasStatic, dasRe, crash := recs[0], recs[1], recs[2], recs[3], recs[4]
	// Plain NAS pays the halo every round; restriped NAS only in round 1.
	for round, step := range nas.Steps {
		if step.Stats.Int("remote_bytes") == 0 {
			t.Errorf("plain NAS round %d moved no dependent bytes", round)
		}
	}
	if nasRe.Steps[0].Stats.Int("remote_bytes") == 0 {
		t.Error("restriped NAS round 1 moved no dependent bytes; nothing triggered the migration")
	}
	for round, step := range nasRe.Steps[1:] {
		if b := step.Stats.Int("remote_bytes"); b != 0 {
			t.Errorf("restriped NAS round %d still fetched %d dependent bytes", round+1, b)
		}
	}
	if m := nasRe.Counters; m.Int("restripe.completed") != 1 || m.Int("restripe.strips_moved") == 0 {
		t.Errorf("migration counters %+v, want one completed migration with moved strips", m)
	}
	for round, step := range dasStatic.Steps {
		if step.Offloaded {
			t.Errorf("DAS-static round %d offloaded over round-robin", round)
		}
	}
	if dasRe.Steps[0].Offloaded {
		t.Error("DAS+restripe round 1 offloaded before any migration")
	}
	if !dasRe.Steps[len(dasRe.Steps)-1].Offloaded {
		t.Error("DAS+restripe never flipped to an accepted offload")
	}
	if crash.Counters.Int("restripe.resumes") == 0 || !crash.Steps[0].Verified || !crash.Steps[1].Verified {
		t.Errorf("crash record %+v, want resumed and verified", crash)
	}
	if len(r.Notes) == 0 {
		t.Error("result carries no notes")
	}
}
