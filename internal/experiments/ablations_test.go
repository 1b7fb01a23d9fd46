package experiments

import (
	"testing"
)

func TestAblationGroupSize(t *testing.T) {
	c := quick()
	r, recs := execute(t, c, ablationGroupSize)
	xs := r.Xs()
	if len(xs) < 3 || len(recs) != len(xs) {
		t.Fatalf("too few group sizes swept: %v (%d records)", xs, len(recs))
	}
	// Capacity overhead must fall as r grows (2·halo/r), and so must the
	// replica traffic it stands for: larger r amortizes it.
	for i := 1; i < len(xs); i++ {
		prev, _ := r.Value("capacity_overhead", xs[i-1])
		cur, _ := r.Value("capacity_overhead", xs[i])
		if cur >= prev {
			t.Errorf("overhead did not fall: r=%v→%v gives %.3f→%.3f", xs[i-1], xs[i], prev, cur)
		}
		was, now := recs[i-1].Steps[0].Traffic.Int("s2s"), recs[i].Steps[0].Traffic.Int("s2s")
		if now >= was {
			t.Errorf("server-to-server bytes did not fall: r=%v→%v gives %d→%d", xs[i-1], xs[i], was, now)
		}
	}
	// Execution stays sane at every r. The r differ in the work they do —
	// a small r is NIC-bound by the replication it pays for (or rejected
	// and served as normal I/O), a large r leaves the servers few, long
	// runs — so each is held to its own bound, startup plus the busiest
	// resource of that run, not to the other r: an offloaded run overlaps
	// its stages and stays within 1.5× (a serial run loop reads 1.6–1.7×).
	// A rejected one is the TS application, which overlaps its stages too
	// but is write-bound here, and within 2×: every output strip of a small
	// group is a replica, and each stripe's write-back waits while its
	// primary forwards the copies, a wait the bound does not count.
	for i, x := range xs {
		step := recs[i].Steps[0]
		v, bound := step.SimSeconds, step.Stats["bound_seconds"]
		if v <= 0 || bound <= 0 {
			t.Fatalf("missing exec time or bound at r=%v: %v, %v", x, v, bound)
		}
		within := 2.0
		if step.Offloaded {
			within = 1.5
		}
		if v < bound || v > within*bound {
			t.Errorf("r=%v (offloaded=%v): exec %.4fs outside [1, %.1f] × its bound %.4fs", x, step.Offloaded, v, within, bound)
		}
	}
}

func TestAblationPredictorRejectionPays(t *testing.T) {
	c := quick()
	r, _ := execute(t, c, ablationPredictor)
	predicted, _ := r.Value("das_predicted", 0)
	blind, _ := r.Value("das_blind_offload", 1)
	ts, _ := r.Value("ts", 2)
	if predicted <= 0 || blind <= 0 || ts <= 0 {
		t.Fatalf("missing values: %v %v %v", predicted, blind, ts)
	}
	// The predictor must avoid the blind offload's penalty...
	if predicted >= blind {
		t.Errorf("prediction did not help: predicted %.4f vs blind %.4f", predicted, blind)
	}
	// ...by tracking TS (within 10%: same path, plus decision overhead).
	if predicted > ts*1.1 {
		t.Errorf("predicted DAS %.4f strays from TS %.4f", predicted, ts)
	}
	for _, n := range r.Notes {
		if n == "WARNING: predictor accepted the hostile pattern" {
			t.Error(n)
		}
	}
}

func TestAblationReconfigAmortizes(t *testing.T) {
	c := quick()
	r, _ := execute(t, c, ablationReconfig)
	pre, _ := r.Value("preplaced", 0)
	first, _ := r.Value("reconfigured_first_op", 1)
	cost, _ := r.Value("reconfig_cost_alone", 2)
	successor, _ := r.Value("successor_op", 3)
	if pre <= 0 || first <= 0 || cost <= 0 || successor <= 0 {
		t.Fatalf("missing values: %v %v %v %v", pre, first, cost, successor)
	}
	// The first migrated run pays the migration on top of execution.
	if first <= pre {
		t.Errorf("migration appears free: first %.4f vs preplaced %.4f", first, pre)
	}
	if first < cost {
		t.Errorf("first op %.4f below its own reconfig cost %.4f", first, cost)
	}
	// The successor runs at pre-placed speed (same layout, no migration):
	// allow 25% slack for differing input values.
	if successor > pre*1.25 {
		t.Errorf("successor %.4f did not amortize (preplaced %.4f)", successor, pre)
	}
}

func TestAblationMultiTenantOrdering(t *testing.T) {
	c := quick()
	r, _ := execute(t, c, ablationMultiTenant)
	get := func(series string) float64 {
		for _, row := range r.Rows {
			if row.Series == series {
				return row.Value
			}
		}
		t.Fatalf("missing series %s", series)
		return 0
	}
	nas, das, ts := get("NAS_makespan"), get("DAS_makespan"), get("TS_makespan")
	if !(das < ts && ts < nas) {
		t.Errorf("fleet makespans DAS=%.4f TS=%.4f NAS=%.4f, want DAS < TS < NAS", das, ts, nas)
	}
	// Mean job time can never exceed the makespan.
	for _, s := range []string{"NAS", "DAS", "TS"} {
		if get(s+"_mean_job") > get(s+"_makespan") {
			t.Errorf("%s mean job above makespan", s)
		}
	}
}

func TestAblationHaloFetchOrdering(t *testing.T) {
	c := quick()
	r, _ := execute(t, c, ablationHaloFetch)
	whole, _ := r.Value("nas_whole_strips", 0)
	rows, _ := r.Value("nas_row_fetch", 1)
	das, _ := r.Value("das_local_replicas", 2)
	if whole <= 0 || rows <= 0 || das <= 0 {
		t.Fatalf("missing values: %v %v %v", whole, rows, das)
	}
	if !(das < rows && rows < whole) {
		t.Errorf("want das < rows < whole, got %.4f / %.4f / %.4f", das, rows, whole)
	}
}

func TestAblationDeployment(t *testing.T) {
	c := quick()
	r, _ := execute(t, c, ablationDeployment)
	get := func(series string, x float64) float64 {
		v, ok := r.Value(series, x)
		if !ok {
			t.Fatalf("missing %s at %v", series, x)
		}
		return v
	}
	// DAS wins within each deployment model.
	for _, suffix := range []string{"_separated", "_collocated"} {
		nas, das, ts := get("NAS"+suffix, 0), get("DAS"+suffix, 1), get("TS"+suffix, 2)
		if !(das < ts && das < nas) {
			t.Errorf("%s: DAS=%.4f TS=%.4f NAS=%.4f, want DAS fastest", suffix, das, ts, nas)
		}
	}
	// Collocation doubles the server count at equal hardware, so DAS gets
	// faster (more parallel kernels over local data).
	if get("DAS_collocated", 1) >= get("DAS_separated", 1) {
		t.Errorf("collocated DAS %.4f not faster than separated %.4f",
			get("DAS_collocated", 1), get("DAS_separated", 1))
	}
}

func TestAblationComputeIntensity(t *testing.T) {
	c := quick()
	r, _ := execute(t, c, ablationComputeIntensity)
	xs := r.Xs()
	if len(xs) < 4 {
		t.Fatalf("sweep too short: %v", xs)
	}
	// DAS never loses, and its advantage at the I/O-bound end exceeds the
	// advantage at the compute-bound end.
	first, _ := r.Value("ts_over_das", xs[0])
	last, _ := r.Value("ts_over_das", xs[len(xs)-1])
	if first <= 1 {
		t.Errorf("I/O-bound speedup %.3f not above 1", first)
	}
	if last >= first {
		t.Errorf("speedup did not shrink with compute cost: %.3f → %.3f", first, last)
	}
	// Times grow monotonically with compute cost for both schemes.
	for _, series := range []string{"das_seconds", "ts_seconds"} {
		prev := 0.0
		for _, x := range xs {
			v, _ := r.Value(series, x)
			if v <= prev {
				t.Errorf("%s not increasing at %v ns", series, x)
			}
			prev = v
		}
	}
}

func TestAblationStripSize(t *testing.T) {
	c := quick()
	r, _ := execute(t, c, ablationStripSize)
	for _, x := range r.Xs() {
		nas, ok1 := r.Value("NAS", x)
		das, ok2 := r.Value("DAS", x)
		ts, ok3 := r.Value("TS", x)
		if !ok1 || !ok2 || !ok3 {
			t.Fatalf("missing cells at %v KiB", x)
		}
		if !(das < ts && das < nas) {
			t.Errorf("%v KiB: DAS=%.4f TS=%.4f NAS=%.4f, want DAS fastest", x, das, ts, nas)
		}
	}
}

func TestAblationMapReduce(t *testing.T) {
	c := quick()
	r, recs := execute(t, c, ablationMapReduce)
	mr, ok1 := r.Value("mapreduce", 0)
	das, ok2 := r.Value("das", 3)
	_, ok3 := r.Value("nas", 5)
	if !ok1 || !ok2 || !ok3 {
		t.Fatalf("missing series: %+v", r.Rows)
	}
	// The §II-C claim: DAS beats MapReduce on its own deployment model.
	if das >= mr {
		t.Errorf("DAS %.4f not faster than MapReduce %.4f", das, mr)
	}
	// MapReduce is a serious baseline, not a strawman: shuffling each halo
	// fragment once moves fewer server-to-server bytes than NAS re-fetching
	// dependent strips per consumer. That is a claim about bytes, asserted
	// in bytes, at this scale and on the committed full-scale records: in
	// seconds MapReduce overlaps nothing behind its map barrier and may land
	// behind NAS, which the experiment's note reports.
	moved := func(scale string, job, nasRec Record) {
		if mrB, nasB := job.Steps[0].Traffic["s2s"], nasRec.Steps[0].Traffic["s2s"]; mrB <= 0 || mrB >= nasB {
			t.Errorf("%s: MapReduce moved %.0f server-to-server bytes, NAS %.0f (comparator too weak)", scale, mrB, nasB)
		}
	}
	moved("quick", recs[0], recs[3])
	full := ablationMapReduce.Scenarios(Default())
	byName := map[string]Record{}
	for _, rec := range committedRecords(t) {
		byName[rec.Name] = rec
	}
	job, ok4 := byName[full[0].Name()]
	nasRec, ok5 := byName[full[3].Name()]
	if !ok4 || !ok5 {
		t.Fatalf("no committed records %q and %q", full[0].Name(), full[3].Name())
	}
	moved("full", job, nasRec)
	mapS, _ := r.Value("mapreduce_map_s", 1)
	reduceS, _ := r.Value("mapreduce_reduce_s", 2)
	if mapS <= 0 || reduceS <= 0 || mapS+reduceS > mr+1e-9 {
		t.Errorf("phase times map=%.4f reduce=%.4f total=%.4f", mapS, reduceS, mr)
	}
}
