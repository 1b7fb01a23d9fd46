package main

import (
	"fmt"
	"math"
	"strings"

	"github.com/hpcio/das/internal/cache"
	"github.com/hpcio/das/internal/cluster"
	"github.com/hpcio/das/internal/control"
	"github.com/hpcio/das/internal/core"
	"github.com/hpcio/das/internal/experiments"
	"github.com/hpcio/das/internal/fault"
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/pfs"
	"github.com/hpcio/das/internal/predict"
	"github.com/hpcio/das/internal/restripe"
	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/tenants"
	"github.com/hpcio/das/internal/workload"
)

// sizes holds every dimension the workloads scale with. fullSizes is what
// the benchmark measures; miniSizes is the same five shapes small enough
// for a unit test.
type sizes struct {
	// nodes is the platform every raster workload deploys (half compute,
	// half storage, the paper's 1:1 split).
	nodes int
	// width and strip fix the raster geometry: with 8192 eight-byte
	// elements per row and 64 KiB strips one row is one strip (Fig. 4).
	width int
	strip int64

	stormNodes, stormOps              int
	offloadRows, schemesRows, dagRows int
	tenants                           tenants.Config
}

func fullSizes() sizes {
	return sizes{
		nodes: 24, width: 8192, strip: 64 << 10,
		stormNodes: 2000, stormOps: 320,
		offloadRows: 320, schemesRows: 384, dagRows: 320,
		tenants: tenantsConfig(96, 256, 100, 8<<10),
	}
}

func miniSizes() sizes {
	return sizes{
		nodes: 8, width: 1024, strip: 8 << 10,
		stormNodes: 8, stormOps: 16,
		offloadRows: 128, schemesRows: 128, dagRows: 128,
		tenants: tenantsConfig(8, 16, 12, 8<<10),
	}
}

// tenantsConfig is the multi-tenant shape: Zipf-skewed closed-loop
// streams whose hot set rotates a third of the way in and whose mix flips
// from read-heavy to write-heavy two thirds in. The retry budget is sized
// so that admission defers under bursts but sheds nothing: a shed is a
// refused operation, and the benchmark measures a run in which every
// operation completes.
func tenantsConfig(streams, files, ops int, strip int64) tenants.Config {
	return tenants.Config{
		Tenants:          streams,
		Files:            files,
		StripsPerFileMin: 4,
		StripsPerFileMax: 12,
		StripSize:        strip,
		OpsPerTenant:     ops,
		ZipfSkew:         1.1,
		Mix:              tenants.Mix{Read: 70, Write: 20, Offload: 10},
		Phases: []tenants.Phase{
			{FromOp: ops / 3, Mix: tenants.Mix{Read: 70, Write: 20, Offload: 10}, Rotate: files / 2},
			{FromOp: 2 * ops / 3, Mix: tenants.Mix{Read: 25, Write: 60, Offload: 15}, Rotate: files / 2},
		},
		MaxQueueDepth: 24,
		ThinkTime:     2 * sim.Millisecond,
		ShedBackoff:   sim.Millisecond,
		ShedRetries:   4096,
	}
}

// jitterRows varies a raster's height by up to three rows with the seed,
// so that the simulated results differ from seed to seed in their digits
// while the amount of work stays within half a percent.
func jitterRows(rows int, seed uint64) int {
	return rows + int(workload.NewRNG(seed).Next()%4)
}

// workloadDef is one named benchmark workload. All five are closed loops:
// every simulated client waits for its reply before issuing the next
// request.
type workloadDef struct {
	name string
	why  string
	// clients and shape describe the load for the report.
	clients func(sz sizes) int
	shape   func(sz sizes) string
	// prepare does the one-time set-up (dataset, sequential reference)
	// and returns the function that runs one repetition: build a fresh
	// platform, run the timed region under rep.timed, then verify.
	prepare func(seed uint64, sz sizes, sp *spans) (func(rep *repetition) error, error)
}

var workloads = []workloadDef{
	{
		name: "storm",
		why: "small-strip PFS request storm: engine dispatch, simnet and the pfs handlers do the CPU work and kernels none, " +
			"so engine or handler changes must show here and kernel changes must not",
		clients: func(sz sizes) int { return sz.stormNodes / 2 },
		shape: func(sz sizes) string {
			return fmt.Sprintf("%d nodes, %d ops/client, 1 KiB strips, 7 reads : 1 write", sz.stormNodes, sz.stormOps)
		},
		prepare: prepareStorm,
	},
	{
		name: "offload",
		why: "four DAS-offloaded kernels on planned layouts: kernel arithmetic, grid codec and active exec dominate and the " +
			"engine is idle, the only place the parallel kernel executor can show",
		clients: func(sizes) int { return 1 },
		shape: func(sz sizes) string {
			return fmt.Sprintf("4 kernels x %d rows x %d, %d nodes", sz.offloadRows, sz.width, sz.nodes)
		},
		prepare: prepareOffload,
	},
	{
		name: "schemes",
		why: "the paper's TS/NAS/DAS comparison: drives client reads and write-back (TS) and server-to-server halo fetches " +
			"(NAS) that offload never touches; its simulated seconds and bytes are the Fig. 11 claims",
		clients: func(sizes) int { return 1 },
		shape: func(sz sizes) string {
			return fmt.Sprintf("{TS,NAS,DAS} x 2 kernels x %d rows x %d, %d nodes", sz.schemesRows, sz.width, sz.nodes)
		},
		prepare: prepareSchemes,
	},
	{
		name: "tenants",
		why: "the adaptive stack under mixed reads, writes and offloads: the only workload where tenants admission, control, " +
			"cache and restripe run and where the upper layers' sim.Proc path dominates",
		clients: func(sz sizes) int { return sz.tenants.Tenants },
		shape: func(sz sizes) string {
			t := sz.tenants
			return fmt.Sprintf("%d streams x %d ops, %d files, %d KiB strips, Zipf %.1f, think %v",
				t.Tenants, t.OpsPerTenant, t.Files, t.StripSize>>10, t.ZipfSkew, t.ThinkTime)
		},
		prepare: prepareTenants,
	},
	{
		name: "dagcrash",
		why: "four-stage DAG pushdown with a server crash and restart mid-run: the only workload through pipeline and fault, " +
			"and the only one with a fault plan active, where simnet leaves its fast path",
		clients: func(sizes) int { return 1 },
		shape: func(sz sizes) string {
			return fmt.Sprintf("terrain4 DAG, %d rows x %d, %d nodes, crash at half the healthy time", sz.dagRows, sz.width, sz.nodes)
		},
		prepare: prepareDagcrash,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// newSystem deploys a fresh paper-shaped platform.
func newSystem(nodes int) (*core.System, error) {
	cfg := cluster.Default()
	cfg.ComputeNodes = nodes / 2
	cfg.StorageNodes = nodes / 2
	return core.NewSystem(cfg)
}

// watchQueues samples every server's request-queue depth at each arrival
// into one sketch.
func watchQueues(sys *core.System) *metrics.LatencySketch {
	depths := metrics.NewLatencySketch()
	sys.FS.SetQueueObserver(func(_, depth int) { depths.ObserveValue(int64(depth)) })
	return depths
}

// paramsOf derives prediction parameters from a raster file's metadata.
func paramsOf(m *pfs.FileMeta) predict.Params {
	return predict.Params{
		ElemSize: m.ElemSize, StripSize: m.StripSize, FileSize: m.Size, Width: m.Width, OutputFactor: 1,
	}
}

// networkBytes sums the three interconnect classes of a traffic delta:
// the paper's cost.
func networkBytes(t map[metrics.TrafficClass]int64) int64 {
	return t[metrics.ClientToServer] + t[metrics.ServerToClient] + t[metrics.ServerToServer]
}

// --- storm ---------------------------------------------------------------

func prepareStorm(seed uint64, sz sizes, sp *spans) (func(*repetition) error, error) {
	var first *experiments.ScaleStats
	return func(rep *repetition) error {
		var runner *experiments.ScaleRunner
		err := sp.do("cluster.build", func() (err error) {
			runner, err = experiments.PrepareScale(experiments.ScaleOptions{
				Nodes: sz.stormNodes, OpsPerClient: sz.stormOps, Seed: seed,
			})
			return err
		})
		if err != nil {
			return err
		}
		var stats experiments.ScaleStats
		if err := rep.timed(func() (err error) {
			stats, err = runner.Run()
			return err
		}); err != nil {
			return err
		}
		// The runner's cluster is private, so the storm's counters are
		// those ScaleStats exports; disk and NIC busy times read zero.
		rep.attempted = stats.Ops
		rep.simNanos = int64(stats.SimTime)
		rep.movedBytes = networkBytes(stats.Traffic)
		rep.counts.addTraffic(stats.Traffic)
		rep.counts.add("sim.events", float64(stats.Events))
		rep.counts.add("pfs.ops", float64(stats.Ops))
		return sp.do("grid.verify", func() error {
			if first == nil {
				first = &stats
			}
			if !stats.SameSimulation(*first) {
				rep.failed = rep.attempted
				return fmt.Errorf("storm: repetition %d is not the simulation repetition 0 was", rep.id)
			}
			return nil
		})
	}, nil
}

// --- offload and schemes ---------------------------------------------------

// cell is one (scheme, kernel) operation of the raster workloads.
type cell struct {
	scheme core.Scheme
	op     string
}

// rasterInput picks the dataset a kernel is evaluated on, as
// experiments.Config does: imagery for the filters, terrain for the flow
// kernels.
func rasterInput(op string, terrain, image *grid.Grid) *grid.Grid {
	if op == "gaussian-filter" || op == "median-filter" {
		return image
	}
	return terrain
}

// prepareCells builds the repetition shared by offload and schemes: each
// cell runs on a fresh platform placed as experiments.Config.RunOne
// places it (round-robin for TS and NAS, the planned layout for DAS), only
// its Execute is timed, and its output is fetched and compared bit for
// bit with the sequential reference.
func prepareCells(name string, cells []cell, rows int, seed uint64, sz sizes, sp *spans) (func(*repetition) error, error) {
	rows = jitterRows(rows, seed)
	var terrain, image *grid.Grid
	if err := sp.do("workload.generate", func() error {
		terrain = workload.Terrain(sz.width, rows, seed)
		image = workload.Image(sz.width, rows, seed, 0.05)
		return nil
	}); err != nil {
		return nil, err
	}
	reg := kernels.Default()
	want := make(map[string]*grid.Grid)
	if err := sp.do("kernels.reference", func() error {
		for _, c := range cells {
			if want[c.op] != nil {
				continue
			}
			k, ok := reg.Lookup(c.op)
			if !ok {
				return fmt.Errorf("%s: unknown kernel %q", name, c.op)
			}
			want[c.op] = kernels.Apply(k, rasterInput(c.op, terrain, image))
		}
		return nil
	}); err != nil {
		return nil, err
	}

	return func(rep *repetition) error {
		for _, c := range cells {
			in := rasterInput(c.op, terrain, image)
			sys, err := buildRaster(sp, sz, in, c)
			if err != nil {
				return err
			}
			err = runCell(rep, sys, c, want[c.op])
			sys.Close()
			if err != nil {
				return fmt.Errorf("%s %v %s: %w", name, c.scheme, c.op, err)
			}
		}
		return nil
	}, nil
}

// buildRaster deploys a platform and ingests one input raster under the
// layout the cell's scheme expects.
func buildRaster(sp *spans, sz sizes, in *grid.Grid, c cell) (*core.System, error) {
	var sys *core.System
	if err := sp.do("cluster.build", func() (err error) {
		sys, err = newSystem(sz.nodes)
		return err
	}); err != nil {
		return nil, err
	}
	var lay layout.Layout = layout.NewRoundRobin(sys.FS.Servers())
	if c.scheme == core.DAS {
		if err := sp.do("predict.plan", func() (err error) {
			lay, err = sys.PlanLayout(c.op, in.W, grid.ElemSize, sz.strip, in.SizeBytes(), 0)
			return err
		}); err != nil {
			sys.Close()
			return nil, err
		}
	}
	if err := sp.do("pfs.ingest", func() error {
		_, err := sys.IngestGrid("input", in, lay, sz.strip)
		return err
	}); err != nil {
		sys.Close()
		return nil, err
	}
	return sys, nil
}

// runCell times one Execute and verifies what it wrote.
func runCell(rep *repetition, sys *core.System, c cell, want *grid.Grid) error {
	var report core.Report
	queues := watchQueues(sys)
	before := snapshotSystem(sys)
	if err := rep.timed(func() (err error) {
		report, err = sys.Execute(core.Request{Op: c.op, Input: "input", Output: "output", Scheme: c.scheme})
		return err
	}); err != nil {
		return err
	}
	rep.counts.addDelta(snapshotSystem(sys), before)
	rep.counts.max("pfs.queue_depth_p99", float64(queues.QuantileValue(99)))
	rep.attempted++
	rep.simNanos += int64(report.ExecTime)
	rep.counts.add("core."+strings.ToLower(c.scheme.String())+"_sim_s", float64(report.ExecTime))
	rep.movedBytes += networkBytes(report.Traffic)
	rep.counts.addExec(report.Stats)

	ok := true
	switch c.scheme {
	case core.NAS:
		ok = report.Offloaded
		// DESIGN §6: the predictor's offload estimate is the server-to-
		// server traffic a blind offload then measures.
		m, _ := sys.FS.Meta("input")
		pat, _ := sys.Features.Lookup(c.op)
		d, err := predict.Decide(pat, paramsOf(m), m.Layout)
		if err != nil {
			return err
		}
		measured := report.Traffic[metrics.ServerToServer]
		rep.counts.add("predict.abs_error_bytes", math.Abs(float64(d.OffloadNetBytes-measured)))
		rep.counts.add("predict.measured_bytes", float64(measured))
	case core.DAS:
		ok = report.Offloaded && report.Decision != nil && report.Decision.Offload
		if report.Decision != nil && report.Decision.Offload {
			rep.counts.add("predict.accepted", 1)
		} else {
			rep.counts.add("predict.rejected", 1)
		}
	}

	var got *grid.Grid
	if err := rep.sp.do("pfs.fetch", func() (err error) {
		got, err = sys.FetchGrid("output")
		return err
	}); err != nil {
		return err
	}
	return rep.sp.do("grid.verify", func() error {
		if !ok || !got.Equal(want) {
			rep.failed++
		}
		return nil
	})
}

func prepareOffload(seed uint64, sz sizes, sp *spans) (func(*repetition) error, error) {
	cells := []cell{
		{core.DAS, "flow-routing"}, {core.DAS, "flow-accumulation"},
		{core.DAS, "gaussian-filter"}, {core.DAS, "median-filter"},
	}
	return prepareCells("offload", cells, sz.offloadRows, seed, sz, sp)
}

func prepareSchemes(seed uint64, sz sizes, sp *spans) (func(*repetition) error, error) {
	var cells []cell
	for _, op := range []string{"flow-routing", "gaussian-filter"} {
		for _, s := range []core.Scheme{core.TS, core.NAS, core.DAS} {
			cells = append(cells, cell{s, op})
		}
	}
	return prepareCells("schemes", cells, sz.schemesRows, seed, sz, sp)
}

// --- tenants ---------------------------------------------------------------

// The adaptive stack's calibration, as experiments wires its das-adaptive
// variant (those values are unexported there).
const (
	tenantsCacheStrips = 128
	drainTimeout       = 60 * sim.Second
)

func prepareTenants(seed uint64, sz sizes, sp *spans) (func(*repetition) error, error) {
	tcfg := sz.tenants
	tcfg.Seed = seed
	tcfg, err := tcfg.Normalize()
	if err != nil {
		return nil, err
	}
	var firstTotals *tenants.Totals
	var firstFair tenants.Fairness

	return func(rep *repetition) error {
		var sys *core.System
		var eng *tenants.Engine
		if err := sp.do("cluster.build", func() (err error) {
			sys, eng, err = buildTenants(sz.nodes, tcfg)
			return err
		}); err != nil {
			return err
		}
		defer sys.Close()
		if err := sp.do("pfs.ingest", func() error {
			_, err := sys.RunProc("tenants-setup", eng.Setup)
			return err
		}); err != nil {
			return err
		}

		var elapsed, drain sim.Time
		before := snapshotSystem(sys)
		if err := rep.timed(func() (err error) {
			if elapsed, err = sys.RunProc("tenants-run", eng.Run); err != nil {
				return err
			}
			converged, dt, err := sys.DrainRestripe(drainTimeout)
			if err == nil && !converged {
				err = fmt.Errorf("tenants: restripe drain did not converge within %v", drainTimeout)
			}
			drain = dt
			return err
		}); err != nil {
			return err
		}
		rep.counts.addDelta(snapshotSystem(sys), before)

		tot, fair := eng.Totals(), eng.Fairness()
		rep.attempted = int64(tcfg.Tenants) * int64(tcfg.OpsPerTenant)
		rep.failed = tot.Sheds
		rep.simNanos = int64(elapsed + drain)
		rep.movedBytes = int64(rep.counts.moved())
		c := &rep.counts
		c.add("tenants.ops", float64(tot.Ops))
		c.add("tenants.sheds", float64(tot.Sheds))
		c.add("tenants.deferrals", float64(tot.Deferrals))
		c.add("tenants.bytes", float64(tot.Bytes))
		c.add("tenants.run_sim_s", elapsed.Seconds())
		c.add("tenants.fair_spread_sim_ms", sim.Time(fair.SpreadNanos).Milliseconds())
		c.add("active.remote_mb", float64(tot.RemoteBytes))
		c.add("restripe.drain_sim_s", drain.Seconds())
		allowed, denied := sys.Control.Admissions()
		c.add("control.admissions_allowed", float64(allowed))
		c.add("control.admissions_denied", float64(denied))
		for _, st := range sys.Control.Stats() {
			c.add("cache.promotions", float64(st.Promotions))
			c.add("cache.demotions", float64(st.Demotions))
		}
		for _, q := range eng.QueueStats() {
			c.max("pfs.queue_depth_p99", float64(q.P99))
		}

		return sp.do("grid.verify", func() error {
			if tot.Ops+tot.Sheds != rep.attempted {
				return fmt.Errorf("tenants: %d ops + %d sheds != %d attempted", tot.Ops, tot.Sheds, rep.attempted)
			}
			if firstTotals == nil {
				firstTotals, firstFair = &tot, fair
			}
			if tot != *firstTotals || fair != firstFair {
				rep.failed = rep.attempted
				return fmt.Errorf("tenants: repetition %d totals %+v differ from repetition 0 %+v", rep.id, tot, *firstTotals)
			}
			return nil
		})
	}, nil
}

// buildTenants deploys the adaptive stack: round-robin files, the halo
// cache, online restriping, and the unified controller observing files
// and offloads.
func buildTenants(nodes int, tcfg tenants.Config) (*core.System, *tenants.Engine, error) {
	sys, err := newSystem(nodes)
	if err != nil {
		return nil, nil, err
	}
	fail := func(err error) (*core.System, *tenants.Engine, error) {
		sys.Close()
		return nil, nil, err
	}
	if err := sys.EnableCache(cache.Config{BudgetBytes: tenantsCacheStrips * tcfg.StripSize}); err != nil {
		return fail(err)
	}
	if err := sys.EnableRestripe(restripe.Config{
		MinObservedBytes: 4 * tcfg.StripSize,
		MaxInFlightBytes: 2 * tcfg.StripSize,
	}); err != nil {
		return fail(err)
	}
	if err := sys.EnableControl(control.Config{
		SampleEvery: 5 * sim.Millisecond,
		LatencyHigh: 4 * sim.Millisecond,
		LatencyLow:  sim.Millisecond,
		Cooldown:    10 * sim.Millisecond,
	}); err != nil {
		return fail(err)
	}
	eng, err := tenants.New(sys.Clu, sys.FS, tcfg)
	if err != nil {
		return fail(err)
	}
	eng.SetFileObserver(sys.Control)
	if pat, ok := sys.Features.Lookup(tcfg.Op); ok {
		eng.SetOffloadObserver(func(file string, remoteBytes int64) {
			m, ok := sys.FS.Meta(file)
			if !ok {
				return
			}
			sys.Restripe.Observe(file, pat, paramsOf(m), remoteBytes)
		})
	}
	return sys, eng, nil
}

// --- dagcrash --------------------------------------------------------------

// restartDelay is how long the crashed server stays down.
const restartDelay = 80 * sim.Millisecond

func prepareDagcrash(seed uint64, sz sizes, sp *spans) (func(*repetition) error, error) {
	dag := experiments.PipelineDAG()
	rows := jitterRows(sz.dagRows, seed)
	var terrain, want *grid.Grid
	var wantReduce []float64
	if err := sp.do("workload.generate", func() error {
		terrain = workload.Terrain(sz.width, rows, seed)
		return nil
	}); err != nil {
		return nil, err
	}
	if err := sp.do("kernels.reference", func() (err error) {
		want, err = kernels.ApplyDAG(dag, kernels.Default(), kernels.DefaultCombiners(), terrain)
		if err == nil {
			wantReduce = kernels.ReduceStriped(kernels.Stats{}, want, sz.strip/grid.ElemSize)
		}
		return err
	}); err != nil {
		return nil, err
	}

	// Every strip keeps a live copy through the crash on the fully
	// mirrored grouped layout.
	servers := sz.nodes / 2
	probe := layout.NewLocator(grid.ElemSize, sz.strip, layout.NewRoundRobin(servers))
	halo := probe.RequiredHalo(int64(sz.width) + 1)
	mirrored := layout.NewGroupedReplicated(servers, halo, halo)
	build := func() (*core.System, error) {
		var sys *core.System
		if err := sp.do("cluster.build", func() (err error) {
			sys, err = newSystem(sz.nodes)
			return err
		}); err != nil {
			return nil, err
		}
		if err := sp.do("pfs.ingest", func() error {
			_, err := sys.IngestGrid("input", terrain, mirrored, sz.strip)
			return err
		}); err != nil {
			sys.Close()
			return nil, err
		}
		return sys, nil
	}
	req := core.DAGRequest{DAG: dag, Input: "input", Output: "output", Scheme: core.DAS, DisablePrediction: true}

	// The crash lands at half the healthy run's simulated time, measured
	// once here.
	healthy, err := build()
	if err != nil {
		return nil, err
	}
	var healthyRep core.DAGReport
	err = sp.do("core.healthy_run", func() (err error) {
		healthyRep, err = healthy.ExecuteDAG(req)
		return err
	})
	healthy.Close()
	if err != nil {
		return nil, fmt.Errorf("dagcrash healthy run: %w", err)
	}
	const crashed = 1
	crashAt := healthyRep.ExecTime / 2
	plan := fault.Plan{Events: []fault.Event{
		{At: crashAt, Kind: fault.Crash, Server: crashed},
		{At: crashAt + restartDelay, Kind: fault.Restart, Server: crashed},
	}}

	return func(rep *repetition) error {
		sys, err := build()
		if err != nil {
			return err
		}
		defer sys.Close()
		if err := sys.Clu.InstallFaultPlan(plan); err != nil {
			return err
		}
		var report core.DAGReport
		queues := watchQueues(sys)
		before := snapshotSystem(sys)
		if err := rep.timed(func() (err error) {
			report, err = sys.ExecuteDAG(req)
			return err
		}); err != nil {
			return err
		}
		rep.counts.addDelta(snapshotSystem(sys), before)
		rep.counts.max("pfs.queue_depth_p99", float64(queues.QuantileValue(99)))
		rep.attempted = 1
		rep.simNanos = int64(report.ExecTime)
		rep.movedBytes = networkBytes(report.Traffic)
		run := report.Run
		c := &rep.counts
		c.add("pipeline.fused_stages", float64(run.FusedStages))
		c.add("pipeline.rounds", float64(run.Rounds))
		c.add("pipeline.exchange_mb", float64(run.ExchangeBytes)/1e6)
		c.add("pipeline.lower_bound_ratio", run.LowerBoundRatio())
		c.add("pipeline.redispatches", float64(run.Redispatches))
		c.add("pipeline.catchups", float64(run.CatchUps))

		var got *grid.Grid
		if report.Pipelined {
			if err := sp.do("pfs.fetch", func() (err error) {
				got, err = sys.FetchGrid(report.Output)
				return err
			}); err != nil {
				return err
			}
		}
		return sp.do("grid.verify", func() error {
			ok := report.Pipelined && got.Equal(want) && run.Redispatches+run.CatchUps > 0 &&
				len(report.Reduce) == len(wantReduce)
			for i := 0; ok && i < len(wantReduce); i++ {
				ok = report.Reduce[i] == wantReduce[i]
			}
			if !ok {
				rep.failed = 1
			}
			return nil
		})
	}, nil
}
