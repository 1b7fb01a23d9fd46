package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"
)

// minTimedReps is the fewest timed repetitions a run reports the fastest
// of, however short its budget.
const minTimedReps = 3

// setupRounds is how many times a run does the one-time set-up: once
// before the warm-up and then at even steps through the budget. The host's
// slow spells last seconds, so rounds done back to back are all inside one
// or all outside; spread over the run, the fastest of them is what setup_s
// reports.
const setupRounds = 5

// measureProcs is the GOMAXPROCS every workload is measured under. On a
// guest with a few virtual cores of a shared host, a goroutine handed to
// an idle P wakes a halted virtual core through the hypervisor, and the
// parallel kernel executor and the collector do that thousands of times a
// second: with two Ps one process's repetitions spread over a factor of
// two and whole runs moved by 30-40 % from minute to minute. On one P the
// same repetitions stay within a few percent (README.md, Measured
// spread). The executor's multi-core gain is the kernels.parallel_speedup
// probe's to report.
const measureProcs = 1

// metricValue is one reported number. Wall-clock metrics carry the
// summary of the samples behind them.
type metricValue struct {
	Value   float64  `json:"value"`
	Unit    string   `json:"unit"`
	Clock   string   `json:"clock"`
	Samples *summary `json:"samples,omitempty"`
}

// workloadResult is everything one run of one workload measured. An
// untraced run fills EndToEnd; a traced run fills PerLayer.
type workloadResult struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Clients   int                    `json:"clients"`
	Shape     string                 `json:"shape"`
	TimedReps int                    `json:"timed_reps"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Correct   bool                   `json:"correct"`
	EndToEnd  map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
}

// runWorkload measures one workload for about budget: the one-time
// set-up, one warm-up repetition, then timed repetitions — each on a
// freshly built platform, verified after its stopwatch stops — until the
// budget is spent, with the further set-up rounds between them on their
// own time. A traced run profiles and probes as well: it spends a third of
// the budget on the layer probes and alternates traced with untraced
// repetitions, so that the cost of tracing is measured in the same process.
func runWorkload(w workloadDef, seed uint64, sz sizes, budget time.Duration, trace bool, outDir string) (*workloadResult, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(measureProcs))
	sp := newSpans()
	var runRep func(*repetition) error
	var setupOnce []float64
	setUp := func() (err error) {
		// What the previous round prepared goes first: two datasets alive
		// at once would be the harness's peak, not the workload's.
		runRep = nil
		runtime.GC()
		sp.rep = -(len(setupOnce) + 1)
		start := time.Now()
		if runRep, err = w.prepare(seed, sz, sp); err != nil {
			return fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setupOnce = append(setupOnce, time.Since(start).Seconds())
		return nil
	}
	if err := setUp(); err != nil {
		return nil, err
	}

	repBudget := budget
	if trace {
		repBudget = budget * 2 / 3
	}
	var reps []*repetition
	var identity string
	var loopStart time.Time
	for id := 0; ; id++ {
		rep := &repetition{id: id, traced: trace && id%2 == 1, sp: sp}
		sp.rep = id
		if err := runRep(rep); err != nil {
			return nil, fmt.Errorf("%s repetition %d: %w", w.name, id, err)
		}
		if err := selfCheck(rep, &identity); err != nil {
			return nil, fmt.Errorf("%s repetition %d: %w", w.name, id, err)
		}
		if id == 0 {
			// The warm-up fills pools and lazy state and is the identity
			// every later repetition must match; its stopwatch is not
			// reported, and the budget starts when it ends.
			loopStart = time.Now()
			continue
		}
		reps = append(reps, rep)
		untraced := len(reps)
		if trace {
			untraced /= 2
		}
		measured := time.Since(loopStart)
		if measured >= repBudget && untraced >= minTimedReps {
			break
		}
		if done := len(setupOnce); done < setupRounds && measured >= repBudget*time.Duration(done)/setupRounds {
			// A set-up round stops the budget's clock.
			start := time.Now()
			if err := setUp(); err != nil {
				return nil, err
			}
			loopStart = loopStart.Add(time.Since(start))
		}
	}

	last := reps[len(reps)-1]
	res := &workloadResult{
		Workload: w.name, Seed: seed, Clients: w.clients(sz), Shape: w.shape(sz),
		TimedReps: len(reps), Attempted: last.attempted, Failed: last.failed, Correct: last.failed == 0,
	}
	if !trace {
		var err error
		res.EndToEnd, err = endToEndMetrics(reps, sp, summarize(setupOnce).Min)
		return res, err
	}

	vals, samples, err := layerValues(reps, sp, len(setupOnce))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	sp.rep = len(reps) + 1
	if err := sp.do("harness.probes", func() error {
		return runProbes(sz, (budget-repBudget)/time.Duration(len(probes)), vals)
	}); err != nil {
		return nil, err
	}
	res.PerLayer = make(map[string]metricValue)
	for _, d := range perLayer() {
		mv := metricValue{Value: vals[d.Name] * d.scale, Unit: d.Unit, Clock: d.Clock}
		if s, ok := samples[d.Name]; ok {
			mv.Samples = &s
		}
		res.PerLayer[d.Name] = mv
	}
	return res, sp.writeTrace(filepath.Join(outDir, "trace-"+w.name+".json"), w.name)
}

// setupSpans are the spans of a repetition that make up its share of
// setup_s.
var setupSpans = []string{"cluster.build", "predict.plan", "pfs.ingest"}

// endToEndMetrics reduces an untraced run to the end-to-end metrics. The
// two times are the fastest of their samples, not the median: every
// repetition of a seed does the same work, what the host adds on top comes
// in bursts shorter than a repetition and only ever adds, and across runs
// minutes apart the fastest repetition moved a third as much as the median
// one (README.md, Measured spread).
func endToEndMetrics(reps []*repetition, sp *spans, setupOnce float64) (map[string]metricValue, error) {
	var walls, allocs, setups []float64
	for _, rep := range reps {
		walls = append(walls, rep.wall.Seconds())
		allocs = append(allocs, float64(rep.allocBytes)/1e6)
		self := sp.selfByName(rep.id)
		var setup time.Duration
		for _, name := range setupSpans {
			setup += self[name]
		}
		setups = append(setups, setup.Seconds())
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	last := reps[len(reps)-1]
	wall, setup, alloc := summarize(walls), summarize(setups), summarize(allocs)
	out := map[string]metricValue{
		"wall_s":      {Value: wall.Min, Samples: &wall},
		"setup_s":     {Value: setupOnce + setup.Min, Samples: &setup},
		"sim_s":       {Value: float64(last.simNanos) / 1e9},
		"moved_mb":    {Value: float64(last.movedBytes) / 1e6},
		"alloc_mb":    {Value: alloc.Median, Samples: &alloc},
		"peak_rss_mb": {Value: rss},
	}
	for _, d := range endToEnd {
		v := out[d.Name]
		v.Unit, v.Clock = d.Unit, d.Clock
		out[d.Name] = v
	}
	return out, nil
}

// layerValues reduces a traced run to the per-layer metrics taken from
// spans, CPU profiles and counters, in raw units and keyed by metric
// name, with the sample summaries of the span metrics.
func layerValues(reps []*repetition, sp *spans, rounds int) (map[string]float64, map[string]summary, error) {
	vals := make(map[string]float64)
	samples := make(map[string]summary)

	// Spans: medians over the set-up rounds done and over the repetitions.
	spanSamples := make(map[string][]float64)
	for round := 1; round <= rounds; round++ {
		self := sp.selfByName(-round)
		for _, name := range []string{"workload.generate", "kernels.reference"} {
			spanSamples[name] = append(spanSamples[name], self[name].Seconds())
		}
	}
	var walls, tracedWalls []float64
	for _, rep := range reps {
		if rep.traced {
			tracedWalls = append(tracedWalls, rep.wall.Seconds())
		} else {
			walls = append(walls, rep.wall.Seconds())
		}
		self := sp.selfByName(rep.id)
		for _, name := range append([]string{"core.run", "pfs.fetch", "grid.verify"}, setupSpans...) {
			spanSamples[name] = append(spanSamples[name], self[name].Seconds())
		}
	}
	for name, xs := range spanSamples {
		s := summarize(xs)
		vals[name+"_s"], samples[name+"_s"] = s.Median, s
	}
	untracedWall := median(walls)
	vals["harness.trace_overhead"] = median(tracedWalls) / untracedWall

	if err := attributeCPU(reps, vals); err != nil {
		return nil, nil, err
	}

	// Counters: exact for the seed, so the last repetition's stand for all.
	c := reps[len(reps)-1].counts
	for name, v := range c.vals {
		vals[name] = v
	}
	if events := c.vals["sim.events"]; events > 0 {
		vals["sim.ns_per_event"] = untracedWall * 1e9 / events
	}
	var diskMax, diskSum float64
	for _, b := range c.diskBusy {
		diskMax = math.Max(diskMax, b)
		diskSum += b
	}
	if diskSum > 0 {
		vals["simdisk.busy_max_over_mean"] = diskMax * float64(len(c.diskBusy)) / diskSum
	}
	if hit, miss := c.vals["cache.hit_mb"], c.vals["cache.miss_bytes"]; hit+miss > 0 {
		vals["cache.hit_ratio"] = hit / (hit + miss)
	}
	// The paper's headline needs all three schemes on the same kernels:
	// schemes only.
	if ts, nas, das := c.vals["core.ts_sim_s"], c.vals["core.nas_sim_s"], c.vals["core.das_sim_s"]; ts > 0 && nas > 0 {
		vals["core.das_gain_vs_ts"] = 1 - das/ts
		vals["core.das_gain_vs_nas"] = 1 - das/nas
	}
	if measured := c.vals["predict.measured_bytes"]; measured > 0 {
		vals["predict.bytes_error"] = c.vals["predict.abs_error_bytes"] / measured
	}
	if run := c.vals["tenants.run_sim_s"]; run > 0 {
		vals["tenants.throughput_sim_mb_s"] = c.vals["tenants.bytes"] / 1e6 / run
		vals["tenants.ops_per_wall_s"] = c.vals["tenants.ops"] / untracedWall
	}
	return vals, samples, nil
}

// attributeCPU decodes the traced repetitions' CPU profiles and stores
// each layer's CPU seconds per traced repetition.
func attributeCPU(reps []*repetition, vals map[string]float64) error {
	cpu := make(map[string]float64)
	var samples int64
	var traced, profiled, period float64
	for _, rep := range reps {
		if !rep.traced {
			continue
		}
		traced++
		for _, raw := range rep.profiles {
			prof, err := parseCPUProfile(raw)
			if err != nil {
				return err
			}
			for _, s := range prof.Samples {
				profiled += float64(s.Nanos) / 1e9
			}
			period = float64(prof.PeriodNanos) / 1e9
			samples += cpuByLayer(prof, cpu)
		}
	}
	var attributed float64
	for _, l := range cpuLayers {
		vals[l+".cpu_s"] = cpu[l] / traced
		attributed += cpu[l]
		delete(cpu, l)
	}
	vals["runtime.gc_cpu_s"] = cpu[layerGC] / traced
	attributed += cpu[layerGC]
	delete(cpu, layerGC)
	// What is left has no internal/ frame, or one in a package the
	// catalogue does not list as a layer.
	for _, s := range cpu {
		vals["runtime.other_cpu_s"] += s / traced
		attributed += s
	}
	vals["harness.cpu_samples"] = float64(samples)
	if math.Abs(attributed-profiled) > period {
		return fmt.Errorf("layers account for %.4f s of %.4f s profiled", attributed, profiled)
	}
	return nil
}

// selfCheck enforces what must hold on every repetition whatever the
// code under test does: the simulation replays exactly, and the traffic
// classes add up to the bytes moved.
func selfCheck(rep *repetition, identity *string) error {
	if rep.attempted < 1 {
		return fmt.Errorf("no operations attempted")
	}
	if moved := rep.counts.moved(); moved != float64(rep.movedBytes) {
		return fmt.Errorf("conservation: simnet classes sum to %.0f bytes, moved %d", moved, rep.movedBytes)
	}
	id := rep.identity()
	if *identity == "" {
		*identity = id
	}
	if id != *identity {
		return fmt.Errorf("determinism: sim/count metrics differ from repetition 0\n  was: %s\n  now: %s", *identity, id)
	}
	return nil
}
