package experiments

import "testing"

// TestPipelineExperimentSmoke runs the smoke-sized pushdown comparison
// end to end: all four variants complete with bitwise-verified output,
// the DAS pushdown moves strictly fewer bytes than its per-pass twin
// (a claim of the experiment, checked again here), the fault run
// recovers, and every record is byte-identical across two runs.
func TestPipelineExperimentSmoke(t *testing.T) {
	c := quick()
	r, recs := execute(t, c, pipelineExperiment)
	if !pipelineExperiment.Replayed {
		t.Fatal("experiment not replayed")
	}
	if len(recs) != 6 {
		t.Fatalf("got %d scenarios, want 4 variants and the healthy and crashed fault runs", len(recs))
	}
	for i, v := range pipelineVariants {
		step := recs[i].Steps[0]
		if !step.Verified {
			t.Errorf("%s: output not verified", v.name)
		}
		if step.Moved() <= 0 || step.SimSeconds <= 0 {
			t.Errorf("%s: degenerate counters %+v", v.name, step)
		}
		if len(step.Reduce) == 0 {
			t.Errorf("%s: terminal reduce missing", v.name)
		}
		if v.perPass {
			continue
		}
		st := step.Stats
		if !step.Offloaded || st.Int("rounds") == 0 || st.Int("stages") == 0 {
			t.Errorf("%s: pushdown shape missing: %+v", v.name, step)
		}
		if st.Int("achieved_halo_bytes") <= 0 || st.Int("lower_bound_bytes") <= 0 || st["lower_bound_ratio"] <= 0 {
			t.Errorf("%s: lower-bound accounting missing: %+v", v.name, step)
		}
	}
	if nas := recs[1].Steps[0].Stats; nas.Int("achieved_halo_bytes") < nas.Int("lower_bound_bytes") {
		t.Errorf("round-robin pushdown beat the lower bound: %+v", nas)
	}
	if recs[3].Steps[0].Moved() >= recs[2].Steps[0].Moved() {
		t.Error("pushdown did not move fewer bytes than per-pass")
	}
	crashed := recs[5]
	if f := crashed.Steps[0]; !f.Verified || f.Stats.Int("redispatches")+f.Stats.Int("catch_ups") == 0 || crashed.Counters.Int("fault.events_applied") == 0 {
		t.Errorf("fault run did not exercise recovery: %+v", crashed)
	}
	if len(r.Rows) == 0 || len(r.Notes) == 0 {
		t.Error("plot result empty")
	}
}
