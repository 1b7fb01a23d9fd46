package experiments

import "testing"

// TestP99ExperimentConverges is the controller PR's acceptance criterion:
// the unified controller pins replicas as the fetch tail crosses the
// threshold and then goes quiet — no promote/demote or migrate/re-migrate
// oscillation after convergence — and every record is byte-identical
// across two runs (asserted by Execute for a Replayed experiment).
func TestP99ExperimentConverges(t *testing.T) {
	c := quick()
	r, recs := execute(t, c, p99Experiment)
	if len(recs) != 2 || !p99Experiment.Replayed {
		t.Fatalf("got %d variants (replayed=%v), want 2 replayed", len(recs), p99Experiment.Replayed)
	}
	for i, rec := range recs {
		name := p99Variants[i]
		if c.P99Rounds-convergedRound(rec.Steps) < 2 {
			t.Errorf("%s did not converge: %+v", name, rec)
		}
		if rec.Counters.Int("control.promotions") == 0 {
			t.Errorf("%s: the controller never promoted — the curve is flat", name)
		}
		if rec.Steps[len(rec.Steps)-1].Stats.Int("pinned_replicas") == 0 {
			t.Errorf("%s: no pinned replicas at the end", name)
		}
	}
	// The restriped variant migrates exactly once and its copies are
	// tagged: excluded migration samples prove the tag path ran.
	res := recs[1]
	if done := res.Steps[len(res.Steps)-1].Stats.Int("restripe_completed"); done != 1 {
		t.Errorf("restriped variant completed %d migrations, want 1", done)
	}
	if res.Counters.Int("control.migration_samples_excluded") == 0 {
		t.Error("migration produced no excluded samples")
	}
	if len(r.Rows) == 0 || len(r.Notes) == 0 {
		t.Error("plot result empty")
	}
}
