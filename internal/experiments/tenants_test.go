package experiments

import "testing"

// TestTenantsExperimentSmoke runs the smoke-sized multi-tenant
// comparison end to end: all four variants complete, every record is
// byte-identical across two runs (asserted by Execute for a Replayed
// experiment), admission engages, and the adaptive variant's subsystems
// actually fire.
func TestTenantsExperimentSmoke(t *testing.T) {
	c := quick()
	r, recs := execute(t, c, tenantsExperiment)
	if !tenantsExperiment.Replayed {
		t.Fatal("experiment not replayed")
	}
	if len(recs) != 4 {
		t.Fatalf("got %d variants, want 4", len(recs))
	}
	for i, v := range tenantsVariants {
		tot := recs[i].Counters
		for _, kind := range []string{"ops", "reads", "writes", "offloads"} {
			if tot.Int("tenants."+kind) == 0 {
				t.Errorf("%s: no %s ran: %+v", v.name, kind, tot)
			}
		}
		if tot.Int("tenants.bytes") <= 0 || recs[i].Seconds() <= 0 {
			t.Errorf("%s: no throughput recorded", v.name)
		}
		if tot.Int("tenants.fair_spread_ns") < 0 || tot.Int("tenants.fair_max_p99_ns") < tot.Int("tenants.fair_min_p99_ns") {
			t.Errorf("%s: degenerate fairness %+v", v.name, tot)
		}
		checkBound(t, v.name, recs[i].Steps[0])
		checkDiskSkew(t, recs[i])
	}
	if recs[0].Counters.Int("tenants.sheds") != 0 {
		t.Error("unbounded variant shed operations")
	}
	if recs[1].Counters.Int("tenants.deferrals") == 0 {
		t.Error("bounded NAS never deferred — admission never engaged")
	}
	adp := recs[3].Counters
	if adp.Int("cache.hit_bytes") == 0 {
		t.Error("adaptive variant: halo cache never hit")
	}
	if adp.Int("control.promotions") == 0 {
		t.Error("adaptive variant: controller never promoted")
	}
	if len(r.Rows) == 0 || len(r.Notes) == 0 {
		t.Error("plot result empty")
	}
}

// checkDiskSkew checks a tenant-streams record's busiest disk worked at
// least as long as the mean one.
func checkDiskSkew(t *testing.T, rec Record) {
	t.Helper()
	if skew := rec.Steps[0].Stats["disk_busy_max_over_mean"]; skew < 1 {
		t.Errorf("%s: disk busy max/mean %.3f below 1", rec.Name, skew)
	}
}
