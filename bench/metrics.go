package main

import "strings"

// The benchmark's metric catalogue. Every number it prints is declared
// here with its unit and its clock: "wall" is host time or memory, "sim"
// is the simulated platform's clock or bytes (the paper's claims live
// there and repeat exactly for one seed), "count" is a dimensionless
// count that also repeats exactly.

// e2eDef is one end-to-end metric, reported for every workload.
type e2eDef struct {
	Name, Unit, Clock string
	Better            string
	// Bound is the share of the baseline median by which the metric may
	// worsen before a change counts as a regression. The acceptance driver
	// compares medians over ten seeds on a shared host, so every bound
	// has to absorb the seed-to-seed and run-to-run spread measured there
	// (README.md records it); two runs of one seed are held to
	// exactRepeatBound on the sim clock instead.
	Bound float64
}

var endToEnd = []e2eDef{
	{"wall_s", "s", "wall", "lower", 0.25},
	{"setup_s", "s", "wall", "lower", 0.25},
	{"sim_s", "s", "sim", "lower", 0.25},
	{"moved_mb", "MB", "sim", "lower", 0.25},
	{"alloc_mb", "MB", "wall", "lower", 0.20},
	{"peak_rss_mb", "MB", "wall", "lower", 0.20},
}

// layerDef is one per-layer metric. Source says where the harness takes
// it from outside the layer: a CPU profile, a span around a public call,
// a counter the layer exports, or a probe of the layer's public functions
// in isolation.
type layerDef struct {
	Name, Unit, Clock, Source string
	// scale converts the raw counter (bytes, simulated nanoseconds) to
	// the reported unit.
	scale float64
}

// runSeconds is how long the acceptance driver lets one run measure.
const runSeconds = 20

// exactRepeatBound is how far a sim or count metric may worsen between
// two runs of the same seed: they repeat exactly, so anything beyond
// rounding is a change in the simulation.
const exactRepeatBound = 0.001

// betterOf gives a per-layer metric's direction: rates, ratios of useful
// to attempted work and the paper's gains are better higher, every time,
// byte and event count better lower.
func betterOf(d layerDef) string {
	for _, suffix := range []string{"_mb_s", "_per_wall_s", "speedup", "gain_vs_ts", "gain_vs_nas", "hit_ratio", "hit_mb", "accepted", "cpu_samples", "fused_stages", "tenants.ops"} {
		if strings.HasSuffix(d.Name, suffix) {
			return "higher"
		}
	}
	return "lower"
}

// cpuLayers are the internal/ packages CPU samples are attributed to.
var cpuLayers = []string{
	"sim", "simnet", "simdisk", "pfs", "layout", "active", "pipeline", "kernels", "grid", "bufpool",
	"predict", "cache", "restripe", "control", "tenants", "core", "cluster", "metrics", "fault", "experiments",
}

var kernelNames = []string{"flow-routing", "flow-accumulation", "gaussian-filter", "median-filter"}

const (
	mb  = 1e-6 // bytes → MB
	sec = 1e-9 // simulated nanoseconds → seconds
)

// perLayer lists every per-layer metric in report order. README.md maps
// each group to the end-to-end metric and the workloads it should move.
func perLayer() []layerDef {
	var defs []layerDef
	add := func(source, name, unit, clock string, scale float64) {
		defs = append(defs, layerDef{name, unit, clock, source, scale})
	}

	// CPU attribution: seconds per traced repetition.
	for _, l := range cpuLayers {
		add("profile", l+".cpu_s", "s", "wall", 1)
	}
	add("profile", "runtime.gc_cpu_s", "s", "wall", 1)
	add("profile", "runtime.other_cpu_s", "s", "wall", 1)
	add("profile", "harness.cpu_samples", "count", "wall", 1)

	// Spans around the harness's own calls: self time.
	for _, name := range []string{
		"workload.generate_s", "kernels.reference_s", "cluster.build_s", "predict.plan_s", "pfs.ingest_s",
		"core.run_s", "pfs.fetch_s", "grid.verify_s",
	} {
		add("span", name, "s", "wall", 1)
	}
	add("span", "harness.trace_overhead", "ratio", "wall", 1)

	// Counters the layers export, as deltas over the timed region.
	counter := func(name, unit, clock string, scale float64) { add("counter", name, unit, clock, scale) }
	count := func(names ...string) {
		for _, name := range names {
			counter(name, "count", "count", 1)
		}
	}
	count("sim.events")
	counter("sim.ns_per_event", "ns", "wall", 1)
	counter("simnet.c2s_mb", "MB", "sim", mb)
	counter("simnet.s2c_mb", "MB", "sim", mb)
	counter("simnet.s2s_mb", "MB", "sim", mb)
	counter("simnet.egress_busy_sim_s", "s", "sim", sec)
	counter("simnet.ingress_busy_sim_s", "s", "sim", sec)
	counter("simdisk.read_mb", "MB", "sim", mb)
	counter("simdisk.write_mb", "MB", "sim", mb)
	counter("simdisk.busy_sim_s", "s", "sim", sec)
	counter("simdisk.busy_max_over_mean", "ratio", "sim", 1)
	count("pfs.ops", "pfs.retries", "pfs.timeouts", "pfs.failover_reads", "pfs.queue_depth_p99")
	count("active.remote_fetches")
	counter("active.remote_mb", "MB", "sim", mb)
	counter("active.read_sim_s", "s", "sim", sec)
	counter("active.fetch_sim_s", "s", "sim", sec)
	counter("active.compute_sim_s", "s", "sim", sec)
	counter("active.write_sim_s", "s", "sim", sec)
	count("active.exec_retries", "predict.accepted", "predict.rejected")
	counter("predict.bytes_error", "ratio", "sim", 1)
	counter("core.ts_sim_s", "s", "sim", sec)
	counter("core.nas_sim_s", "s", "sim", sec)
	counter("core.das_sim_s", "s", "sim", sec)
	counter("core.das_gain_vs_ts", "ratio", "sim", 1)
	counter("core.das_gain_vs_nas", "ratio", "sim", 1)
	counter("cache.hit_ratio", "ratio", "count", 1)
	counter("cache.hit_mb", "MB", "sim", mb)
	count("cache.evictions", "cache.promotions", "cache.demotions",
		"control.admissions_allowed", "control.admissions_denied", "restripe.planned", "restripe.completed")
	counter("restripe.drain_sim_s", "s", "sim", 1)
	count("tenants.ops", "tenants.sheds", "tenants.deferrals")
	counter("tenants.throughput_sim_mb_s", "MB/s", "sim", 1)
	counter("tenants.fair_spread_sim_ms", "ms", "sim", 1)
	counter("tenants.ops_per_wall_s", "1/s", "wall", 1)
	count("pipeline.fused_stages", "pipeline.rounds")
	counter("pipeline.exchange_mb", "MB", "sim", 1)
	counter("pipeline.lower_bound_ratio", "ratio", "sim", 1)
	count("pipeline.redispatches", "pipeline.catchups", "fault.events", "fault.dropped_messages")

	// Probes of each layer's public functions in isolation.
	probe := func(unit string, names ...string) {
		for _, name := range names {
			add("probe", name, unit, "wall", 1)
		}
	}
	probe("ns", "sim.probe_task_ns", "sim.probe_proc_ns", "sim.probe_timer_ns", "simnet.probe_rpc_ns",
		"simdisk.probe_io_ns", "pfs.probe_read_ns", "pfs.probe_write_ns")
	probe("count", "pfs.probe_read_allocs")
	for _, k := range kernelNames {
		probe("ns", "kernels."+k+".ns_per_elem")
	}
	probe("ratio", "kernels.parallel_speedup")
	probe("MB/s", "grid.decode_mb_s", "grid.encode_mb_s")
	probe("ns", "bufpool.getput_ns", "layout.locate_ns")
	probe("us", "predict.decide_us", "pipeline.compile_us")
	probe("MB/s", "workload.terrain_mb_s")
	probe("ns", "metrics.sketch_record_ns")
	return defs
}
