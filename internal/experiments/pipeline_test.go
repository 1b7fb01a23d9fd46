package experiments

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

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

// pricedFactor bounds how far a committed pushdown record's simulated
// seconds may sit from what the prediction core priced its fusion depth
// at, either way. The price is of a healthy cluster, so the crash cell,
// priced as its healthy twin, reads highest (1.39×); the healthy cells
// read 1.01–1.16×.
const pricedFactor = 1.5

// TestPushdownRecordsWithinAFactorOfTheirPrice holds the depth price to
// the committed full-scale records: it runs nothing. Every pushdown
// record names the depth it ran and that depth's predicted seconds, and
// its simulated seconds lie within pricedFactor of them.
func TestPushdownRecordsWithinAFactorOfTheirPrice(t *testing.T) {
	var n int
	for _, rec := range committedRecords(t) {
		if !strings.HasPrefix(rec.Name, PipelineDAG().Name+" ") || !strings.Contains(rec.Name, "pushdown") {
			continue
		}
		n++
		step := rec.Steps[0]
		depth, predicted := step.Stats.Int("fusion_depth"), step.Stats["predicted_seconds"]
		if depth < 1 || depth > step.Stats.Int("stages") || predicted <= 0 {
			t.Errorf("%s: fusion depth %d, predicted %.4fs", rec.Name, depth, predicted)
			continue
		}
		if ratio := step.SimSeconds / predicted; ratio > pricedFactor || ratio < 1/pricedFactor {
			t.Errorf("%s: sim %.4fs is %.3f× its predicted %.4fs, outside a factor of %.1f",
				rec.Name, step.SimSeconds, ratio, predicted, pricedFactor)
		}
	}
	if n != 4 {
		t.Fatalf("%d committed pushdown records, want 4", n)
	}
}

// TestPushdownRecordsWithinTheirBound holds the committed full-scale
// terrain pushdown records — four of them, each at or above its bound
// (TestEveryCommittedStepWithinItsBound) — and the crash cell to what a
// crash costs: the crashed server's acked runs are not redone, each
// caught-up strip evaluates its lineage once, the catch-up wave spreads
// over every live holder, and no call waits on a crashed caller, so the
// crash + restart run takes at most 1.25× its healthy twin (1.23×; 1.32×
// when the crashed server's whole request was redone, 1.56× before the
// chain fused whole, 1.80× when the wave queued on the first live holder
// and a dead caller's call waited out its timeout, 2.28× when a catch-up
// evaluated each target's lineage on its own).
func TestPushdownRecordsWithinTheirBound(t *testing.T) {
	var n int
	var crashed, healthy *StepRecord
	for _, rec := range committedRecords(t) {
		if !strings.HasPrefix(rec.Name, PipelineDAG().Name+" ") || !strings.Contains(rec.Name, "pushdown") {
			continue
		}
		n++
		step := &rec.Steps[0]
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
	if ratio := crashed.SimSeconds / healthy.SimSeconds; ratio > 1.25 {
		t.Errorf("the crash cell took %.4fs, %.3f× its healthy twin's %.4fs; want at most 1.25×",
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
