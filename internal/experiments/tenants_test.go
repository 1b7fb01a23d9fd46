package experiments

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

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
		checkTenantsBound(t, recs[i])
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

// TestTenantsRecordsWithinTheirBound holds the committed full-scale
// tenants records to the same: each run took at least its busiest storage
// resource's time.
func TestTenantsRecordsWithinTheirBound(t *testing.T) {
	n := 0
	for _, rec := range committedRecords(t) {
		if strings.HasPrefix(rec.Name, "tenants(") {
			checkTenantsBound(t, rec)
			n++
		}
	}
	if n != len(tenantsVariants) {
		t.Errorf("%d committed tenants records, want %d", n, len(tenantsVariants))
	}
}

// TestPushdownRecordsWithinTheirBound holds the committed full-scale
// terrain pushdown records to their bound, and the crash cell to what a
// catch-up costs: each caught-up strip evaluates its lineage once, the
// catch-up wave spreads over every live holder, and no call waits on a
// crashed caller, so the crash + restart run takes at most 1.6× its
// healthy twin (1.56×; 1.80× when the wave queued on the first live
// holder and a dead caller's call waited out its timeout, 2.28× when a
// catch-up evaluated each target's lineage on its own).
func TestPushdownRecordsWithinTheirBound(t *testing.T) {
	var n int
	var crashed, healthy *StepRecord
	for _, rec := range committedRecords(t) {
		if !strings.HasPrefix(rec.Name, PipelineDAG().Name+" ") || !strings.Contains(rec.Name, "pushdown") {
			continue
		}
		n++
		step := &rec.Steps[0]
		if bound := step.Stats["bound_seconds"]; bound <= 0 || step.SimSeconds < bound {
			t.Errorf("%s: sim %.4fs not at or above its bound %.4fs", rec.Name, step.SimSeconds, bound)
		}
		switch {
		case strings.Contains(rec.Name, "faults[crash"):
			crashed = step
		case strings.HasSuffix(rec.Name, "grouped(r=2,halo=2) | DAS pushdown(forced)"):
			healthy = step
		}
	}
	if n != 4 || crashed == nil || healthy == nil {
		t.Fatalf("%d committed pushdown records (crash cell %v, its healthy twin %v), want 4 with both",
			n, crashed != nil, healthy != nil)
	}
	if crashed.Stats.Int("catch_ups") == 0 {
		t.Error("the crash cell caught no strip up")
	}
	if ratio := crashed.SimSeconds / healthy.SimSeconds; ratio > 1.6 {
		t.Errorf("the crash cell took %.4fs, %.2f× its healthy twin's %.4fs; want at most 1.6×",
			crashed.SimSeconds, ratio, healthy.SimSeconds)
	}
}

// committedRecords reads the committed full-scale records, BENCH_sim.json.
func committedRecords(t *testing.T) []Record {
	t.Helper()
	data, err := os.ReadFile("../../BENCH_sim.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed []Record
	if err := json.Unmarshal(data, &committed); err != nil {
		t.Fatal(err)
	}
	return committed
}

// checkTenantsBound checks a tenant-streams record against its bound: the
// busiest storage resource worked, no longer than the run took, and the
// busiest disk at least the mean one.
func checkTenantsBound(t *testing.T, rec Record) {
	t.Helper()
	step := rec.Steps[0]
	v, bound, skew := step.SimSeconds, step.Stats["bound_seconds"], step.Stats["disk_busy_max_over_mean"]
	if bound <= 0 || v < bound {
		t.Errorf("%s: sim %.4fs not at or above its bound %.4fs", rec.Name, v, bound)
	}
	if skew < 1 {
		t.Errorf("%s: disk busy max/mean %.3f below 1", rec.Name, skew)
	}
}
