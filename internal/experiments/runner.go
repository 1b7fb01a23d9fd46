package experiments

import (
	"fmt"
	"math"
	"sort"

	"github.com/hpcio/das/internal/active"
	"github.com/hpcio/das/internal/cluster"
	"github.com/hpcio/das/internal/control"
	"github.com/hpcio/das/internal/core"
	"github.com/hpcio/das/internal/fault"
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/mapred"
	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/pfs"
	"github.com/hpcio/das/internal/predict"
	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/tenants"
	"github.com/hpcio/das/internal/workload"
)

// restripeDrainTimeout bounds how long a Drain step waits for background
// migrations; the experiments converge in simulated milliseconds.
const restripeDrainTimeout = 60 * sim.Second

// session is what the runs of one Config share: the records of the cells
// already run, the count of platforms built, and the current dataset with
// its sequential references.
type session struct {
	records   map[string]Record
	platforms int
	data      dataset
}

// dataset caches one generated raster and the references computed from it.
// Only one (generator, size) is held at a time: tables sweep sizes in
// order, so a second entry would buy nothing but peak memory.
type dataset struct {
	key   string
	input *grid.Grid
	refs  map[string]*grid.Grid
}

func (d *dataset) load(s Scenario) (*grid.Grid, error) {
	key := fmt.Sprintf("%v/%d/%d/%d", s.Image, s.SizeGB, s.Width, s.Seed)
	if d.key == key {
		return d.input, nil
	}
	elems := int64(s.SizeGB) * BytesPerPaperGB / grid.ElemSize
	if s.Width <= 0 || elems%int64(s.Width) != 0 {
		return nil, fmt.Errorf("experiments: %d GB does not tile width %d", s.SizeGB, s.Width)
	}
	h := int(elems / int64(s.Width))
	var g *grid.Grid
	if s.Image {
		g = workload.Image(s.Width, h, s.Seed, 0.05)
	} else {
		g = workload.Terrain(s.Width, h, s.Seed)
	}
	*d = dataset{key: key, input: g, refs: map[string]*grid.Grid{"": g}}
	return g, nil
}

// ref returns the sequential reference named by lineage — the chain of
// operators from the input — computing it on first use.
func (d *dataset) ref(lineage string, compute func() (*grid.Grid, error)) (*grid.Grid, error) {
	if g, ok := d.refs[lineage]; ok {
		return g, nil
	}
	g, err := compute()
	if err == nil {
		d.refs[lineage] = g
	}
	return g, err
}

// Run executes a scenario and returns its record. A Config from Default or
// Quick remembers every cell it has run: an equal scenario returns the
// recorded outcome without building a platform again.
func (c Config) Run(s Scenario) (Record, error) {
	if c.session == nil {
		return c.RunLive(s, nil, nil)
	}
	key := s.key()
	if rec, ok := c.session.records[key]; ok {
		return rec, nil
	}
	rec, err := c.RunLive(s, nil, nil)
	if err == nil {
		c.session.records[key] = rec
	}
	return rec, err
}

// Live is a scenario's deployed platform, lent to RunLive's callbacks.
type Live struct {
	*core.System
	// Tenants is the tenant engine, once a TenantStreams step has run.
	Tenants *tenants.Engine
}

// RunLive is the one place a platform is built, placed, enabled, executed,
// drained, read back, verified against the sequential reference, closed
// and recorded. It never consults the recorded cells. deployed, when
// non-nil, sees the platform after ingest and before the first step; done
// sees it, and the record, after the last step is verified and before the
// platform closes.
func (c Config) RunLive(s Scenario, deployed func(*Live), done func(*Live, Record)) (Record, error) {
	ses := c.session
	if ses == nil {
		ses = &session{}
	}
	name := s.Name()
	fail := func(err error) (Record, error) { return Record{}, fmt.Errorf("%s: %w", name, err) }

	plan := s.Faults
	if s.FaultsFromHalfHealthy {
		healthy, err := c.Run(s.healthy())
		if err != nil {
			return Record{}, err
		}
		half := healthy.Steps[0].SimTime() / 2
		plan.Events = append([]fault.Event(nil), plan.Events...)
		for i := range plan.Events {
			plan.Events[i].At += half
		}
	}

	if s.Nodes <= 0 || s.Nodes%2 != 0 {
		return fail(fmt.Errorf("node count %d must be positive and even (1:1 split)", s.Nodes))
	}
	cfg := cluster.Default()
	cfg.ComputeNodes, cfg.StorageNodes = s.Nodes/2, s.Nodes/2
	if s.Collocated {
		cfg.ComputeNodes, cfg.StorageNodes, cfg.Collocated = s.Nodes, s.Nodes, true
	}
	if s.ComputeNsPerElem != 0 {
		cfg.ComputeNsPerElem = s.ComputeNsPerElem
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return fail(err)
	}
	defer sys.Close()
	ses.platforms++
	r := &run{s: s, plan: plan, data: &ses.data, live: &Live{System: sys}, lineage: map[string]string{}}
	r.inputMoves = s.Restripe != nil
	for _, st := range s.Steps {
		if st.Kind != InstallFaults {
			r.requests++
		}
		r.inputMoves = r.inputMoves || st.Reconfigure
	}
	if s.Scatter.OpName != "" {
		sys.Registry.Register(s.Scatter)
		sys.Features = sys.Registry.Features()
	}
	if err := r.ingest(); err != nil {
		return fail(err)
	}
	if s.Cache != nil {
		err = sys.EnableCache(*s.Cache)
	}
	if err == nil && s.Restripe != nil {
		err = sys.EnableRestripe(*s.Restripe)
	}
	if err == nil && s.Control != nil {
		// The controller comes last so it adopts both subsystems.
		if err = sys.EnableControl(*s.Control); err == nil {
			r.fetchSketch = sys.Control.MergedFetchSketch()
		}
	}
	if err != nil {
		return fail(err)
	}
	if deployed != nil {
		deployed(r.live)
	}

	rec := Record{Name: name}
	for i, st := range s.Steps {
		if st.Kind == InstallFaults {
			if err := sys.Clu.InstallFaultPlan(plan); err != nil {
				return fail(err)
			}
			continue
		}
		sr, err := r.step(st, len(rec.Steps))
		if err != nil {
			return fail(fmt.Errorf("step %d (%v): %w", i+1, st, err))
		}
		rec.Steps = append(rec.Steps, sr)
	}
	for i := range rec.Steps {
		if err := r.verify(&rec.Steps[i]); err != nil {
			return fail(err)
		}
	}
	rec.Counters = r.counters()
	if err := r.checkCacheHits(rec); err != nil {
		return fail(err)
	}
	if m, ok := sys.FS.Meta("input"); ok {
		rec.Layout = m.Layout.Name()
		if r.inputMoves {
			// A migration — online or by reconfiguration — must not have
			// changed a byte of the input it moved.
			if err := r.equal("input", ""); err != nil {
				return fail(err)
			}
		}
	}
	if done != nil {
		done(r.live, rec)
	}
	return rec, nil
}

// run is one scenario in flight.
type run struct {
	s    Scenario
	plan fault.Plan
	data *dataset
	live *Live
	// requests counts the steps that yield a record; inputMoves notes that
	// a migrator or a reconfiguring step may relocate the input.
	requests   int
	inputMoves bool
	// lineage maps each raster file the run has written to the chain of
	// operators that produced it from the input: the name of its reference.
	lineage map[string]string
	// fetchSketch is the controller's cumulative fetch-latency sketch at
	// the previous step's end; a step's tail is the delta against it.
	fetchSketch *metrics.LatencySketch
}

// inputs names the ingested rasters.
func (r *run) inputs() []string {
	if r.s.Copies <= 1 {
		return []string{"input"}
	}
	names := make([]string, r.s.Copies)
	for i := range names {
		names[i] = fmt.Sprintf("input%d", i)
	}
	return names
}

// ingest generates (or reuses) the raster and writes it under the
// scenario's placement.
func (r *run) ingest() error {
	s, sys := r.s, r.live.System
	if s.Tenants != nil {
		return nil
	}
	g, err := r.data.load(s)
	if err != nil {
		return err
	}
	op := s.Op
	if op == "" && len(s.DAG.Nodes) > 0 {
		op = s.DAG.Nodes[0].Op
	}
	lay, err := r.layout(op, g.W, s.StripSize, g.SizeBytes())
	if err != nil {
		return err
	}
	for _, name := range r.inputs() {
		if _, err := sys.IngestGrid(name, g, lay, s.StripSize); err != nil {
			return err
		}
		r.lineage[name] = ""
	}
	return nil
}

// layout resolves the scenario's placement for a raster of the given
// geometry; a planned layout is planned for op (a DAG's first kernel).
func (r *run) layout(op string, width int, stripSize, size int64) (layout.Layout, error) {
	sys, p := r.live.System, r.s.Place
	switch p.Kind {
	case Planned:
		return sys.PlanLayout(op, width, grid.ElemSize, stripSize, size, 0)
	case Grouped:
		return layout.NewGroupedReplicated(sys.FS.Servers(), p.R, p.Halo), nil
	}
	return layout.NewRoundRobin(sys.FS.Servers()), nil
}

// step executes one step, verifies it unless the scenario defers that,
// drains if asked, and samples the controller.
func (r *run) step(st Step, index int) (StepRecord, error) {
	sys := r.live.System
	out := "output"
	if r.requests > 1 {
		out = fmt.Sprintf("output.%d", index)
	}
	in := st.Input
	if in == "" {
		in = "input"
	}
	sr := StepRecord{Output: out, Traffic: Counters{}, Stats: Counters{}}
	before := sys.Clu.Traffic.Snapshot()
	var err error
	switch st.Kind {
	case Kernel:
		err = r.kernel(&sr, st, in)
	case Fleet:
		err = r.fleet(&sr, st)
	case DAGRun:
		err = r.dag(&sr, st, in)
	case MapReduce:
		err = r.mapReduce(&sr, in)
	case TenantStreams:
		err = r.streams(&sr)
	default:
		err = fmt.Errorf("unknown step kind %d", st.Kind)
	}
	if err != nil {
		return sr, err
	}
	// No schedule beats its bound: a step that does measured itself wrong.
	if bound, ok := sr.Stats["bound_seconds"]; ok && sr.SimTime() < SimTime(bound) {
		return sr, fmt.Errorf("sim %.9fs below its bound %.9fs", sr.SimSeconds, bound)
	}
	after := sys.Clu.Traffic.Snapshot()
	for _, class := range metrics.Classes() {
		sr.Traffic[trafficNames[class]] = float64(after[class] - before[class])
	}
	if !r.s.VerifyLast {
		if err := r.verify(&sr); err != nil {
			return sr, err
		}
	}
	if st.Drain {
		converged, dt, err := sys.DrainRestripe(restripeDrainTimeout)
		if err != nil {
			return sr, err
		}
		if !converged {
			return sr, fmt.Errorf("migration did not converge within %v", restripeDrainTimeout)
		}
		sr.Stats["drain_seconds"] = dt.Seconds()
	}
	if sys.Control != nil && sys.Cache != nil {
		// The round's view of the controlled system, taken after any
		// migration it triggered has landed so the strip flips and
		// cool-downs count in this round, not the next.
		cum := sys.Control.MergedFetchSketch()
		delta := cum.Delta(r.fetchSketch)
		r.fetchSketch = cum
		pinned := 0
		for _, cs := range sys.Cache.Stats() {
			pinned += cs.PinnedEntries
		}
		sr.Stats["fetch_p99_ns"] = float64(delta.Quantile(control.Percentile))
		sr.Stats["fetch_samples"] = float64(delta.Count())
		sr.Stats["pinned_replicas"] = float64(pinned)
		sr.Stats["control_actions"] = float64(len(sys.Control.Actions()))
		sr.Stats["restripe_planned"] = float64(sys.Clu.Counters.Get("restripe.planned"))
		sr.Stats["restripe_completed"] = float64(sys.Clu.Counters.Get("restripe.completed"))
	}
	return sr, nil
}

var trafficNames = map[metrics.TrafficClass]string{
	metrics.ClientToServer: "c2s", metrics.ServerToClient: "s2c", metrics.ServerToServer: "s2s",
	metrics.DiskRead: "disk_read", metrics.DiskWrite: "disk_write",
}

// Moved is every byte the step moved — input reads, inter-stage traffic,
// writeback, replication — over all traffic classes.
func (sr StepRecord) Moved() (sum int64) {
	for _, class := range metrics.Classes() {
		sum += sr.Traffic.Int(trafficNames[class])
	}
	return sum
}

func (r *run) kernel(sr *StepRecord, st Step, in string) error {
	rep, err := r.live.Execute(core.Request{
		Op: r.s.Op, Input: in, Output: sr.Output, Scheme: st.Scheme,
		NASFetchMode: st.FetchMode, Reconfigure: st.Reconfigure, DisablePrediction: st.Force,
	})
	if err != nil {
		return err
	}
	r.lineage[sr.Output] = r.lineage[in] + "/" + r.s.Op
	sr.SimSeconds = rep.ExecTime.Seconds()
	sr.Offloaded, sr.Degraded, sr.DegradedReason = rep.Offloaded, rep.Degraded, rep.DegradedReason
	sr.Stats["remote_fetches"] = float64(rep.Stats.RemoteFetches)
	sr.Stats["remote_bytes"] = float64(rep.Stats.RemoteBytes)
	sr.Stats["cache_hits"] = float64(rep.Stats.CacheHits)
	sr.Stats["cache_hit_bytes"] = float64(rep.Stats.CacheHitBytes)
	r.stages(sr, rep.Stats.PhaseMax, rep.BusiestResource())
	if rep.Reconfigured {
		sr.Stats["reconfig_seconds"] = rep.ReconfigTime.Seconds()
	}
	if rep.Decision != nil {
		sr.Reason = rep.Decision.Reason
		sr.Stats["predicted_hit_frac"] = rep.Decision.CacheHitFrac
	}
	return nil
}

// stages records where a step's time went: the busiest worker's time per
// stage (a storage server's stages overlap, so they do not add up to the
// step's time — active.Phases says what does), and the bound the step's
// time is set against, startup plus the busiest resource.
func (r *run) stages(sr *StepRecord, ph active.Phases, busiest sim.Time) {
	sr.Stats["read_seconds"] = ph.LocalRead.Seconds()
	sr.Stats["fetch_seconds"] = ph.Fetch.Seconds()
	sr.Stats["compute_seconds"] = ph.Compute.Seconds()
	sr.Stats["write_seconds"] = ph.Write.Seconds()
	sr.Stats["stall_seconds"] = ph.Stall.Seconds()
	sr.Stats["forward_wait_seconds"] = ph.Forward.Seconds()
	sr.Stats["bound_seconds"] = (r.live.Clu.Cfg.Startup + busiest).Seconds()
}

// fleet runs the operator over every input copy at once; the step's time
// is the makespan and each job's own time rides in the stats.
func (r *run) fleet(sr *StepRecord, st Step) error {
	var reqs []core.Request
	for i, in := range r.inputs() {
		out := fmt.Sprintf("%s.%d", sr.Output, i)
		reqs = append(reqs, core.Request{Op: r.s.Op, Input: in, Output: out, Scheme: st.Scheme})
		r.lineage[out] = "/" + r.s.Op
	}
	reports, err := r.live.ExecuteConcurrent(reqs)
	if err != nil {
		return err
	}
	sr.SimSeconds = core.Makespan(reports).Seconds()
	sr.Offloaded = true
	for i, rep := range reports {
		sr.Stats[fmt.Sprintf("job_seconds.%d", i)] = rep.ExecTime.Seconds()
		sr.Offloaded = sr.Offloaded && rep.Offloaded
	}
	return nil
}

func (r *run) dag(sr *StepRecord, st Step, in string) error {
	rep, err := r.live.ExecuteDAG(core.DAGRequest{
		DAG: r.s.DAG, Input: in, Output: sr.Output,
		Scheme: st.Scheme, PerPass: st.PerPass, DisablePrediction: st.Force,
	})
	if err != nil {
		return err
	}
	// The per-pass path names its intermediates and final stage itself.
	sr.Output = rep.Output
	r.lineage[rep.Output] = "dag:" + r.s.DAG.Name
	sr.Reduce = rep.Reduce
	sr.SimSeconds = rep.ExecTime.Seconds()
	sr.Offloaded, sr.Degraded, sr.DegradedReason = rep.Pipelined, rep.Degraded, rep.DegradedReason
	if rep.Decision != nil {
		sr.Reason = rep.Decision.Reason
	}
	if rep.Pipelined {
		run := rep.Run
		sr.Stats["stages"] = float64(run.Stages)
		sr.Stats["fused_stages"] = float64(run.FusedStages)
		sr.Stats["rounds"] = float64(run.Rounds)
		sr.Stats["fusion_depth"] = float64(run.Depth)
		sr.Stats["predicted_seconds"] = run.PredictedSeconds.Seconds()
		sr.Stats["fetch_bytes"] = float64(run.FetchBytes)
		sr.Stats["exchange_bytes"] = float64(run.ExchangeBytes)
		sr.Stats["achieved_halo_bytes"] = float64(run.AchievedHaloBytes)
		sr.Stats["lower_bound_bytes"] = float64(run.LowerBoundBytes)
		sr.Stats["lower_bound_ratio"] = run.LowerBoundRatio()
		sr.Stats["redispatches"] = float64(run.Redispatches)
		sr.Stats["catch_ups"] = float64(run.CatchUps)
		r.stages(sr, run.Phases, rep.BusiestResource())
	}
	return nil
}

func (r *run) mapReduce(sr *StepRecord, in string) error {
	sys := r.live.System
	var stats mapred.Stats
	elapsed, err := sys.RunProc("mapred-job", func(p *sim.Proc) (err error) {
		stats, err = mapred.NewRunner(sys.FS, sys.Registry).Run(p, mapred.Job{Op: r.s.Op, Input: in, Output: sr.Output})
		return err
	})
	if err != nil {
		return err
	}
	r.lineage[sr.Output] = r.lineage[in] + "/" + r.s.Op
	sr.SimSeconds = elapsed.Seconds()
	sr.Stats["map_seconds"] = stats.MapTime.Seconds()
	sr.Stats["shuffle_seconds"] = stats.ShuffleTime.Seconds()
	sr.Stats["reduce_seconds"] = stats.ReduceTime.Seconds()
	sr.Stats["shuffled_bytes"] = float64(stats.ShuffledBytes)
	return nil
}

// streams deploys the tenant engine over whatever subsystems the scenario
// enabled — planned per-file layouts, the controller as file observer, the
// migrator fed each offload's halo traffic — and replays the streams.
func (r *run) streams(sr *StepRecord) error {
	sys, tcfg := r.live.System, *r.s.Tenants
	eng, err := tenants.New(sys.Clu, sys.FS, tcfg)
	if err != nil {
		return err
	}
	tcfg = eng.Config()
	if r.s.Place.Kind != RoundRobin {
		width := int(tcfg.StripSize / grid.ElemSize)
		eng.SetLayouts(func(_ int, strips int64) layout.Layout {
			lay, err := r.layout(tcfg.Op, width, tcfg.StripSize, strips*tcfg.StripSize)
			if err != nil {
				return layout.NewRoundRobin(sys.FS.Servers())
			}
			return lay
		})
	}
	if sys.Control != nil {
		eng.SetFileObserver(sys.Control)
	}
	if pat, ok := sys.Features.Lookup(tcfg.Op); ok && sys.Restripe != nil {
		eng.SetOffloadObserver(func(file string, remoteBytes int64) {
			if m, ok := sys.FS.Meta(file); ok {
				sys.Restripe.Observe(file, pat, predict.Params{
					ElemSize: m.ElemSize, StripSize: m.StripSize, FileSize: m.Size,
					Width: m.Width, OutputFactor: 1,
				}, remoteBytes)
			}
		})
	}
	if _, err := sys.RunProc("tenants-setup", eng.Setup); err != nil {
		return err
	}
	loadBefore := sys.Clu.UtilizationSnapshot()
	elapsed, err := sys.RunProc("tenants-run", eng.Run)
	if err != nil {
		return err
	}
	r.live.Tenants = eng
	sr.Output = ""
	sr.SimSeconds = elapsed.Seconds()
	// The streams are bound by their busiest storage resource: no schedule
	// of the same operations on the same placement finishes sooner.
	load := sys.Clu.UtilizationSnapshot().Sub(loadBefore)
	sr.Stats["bound_seconds"] = load.Busiest().Seconds()
	sr.Stats["disk_busy_max_over_mean"] = load.DiskMaxOverMean()
	return nil
}

// verify reads a step's output back and compares it bit for bit with the
// sequential reference; a DAG's terminal aggregate is held to the
// canonical strip fold, and tenant streams to their conservation law.
func (r *run) verify(sr *StepRecord) error {
	if sr.Verified {
		return nil
	}
	if eng := r.live.Tenants; sr.Output == "" && eng != nil {
		tot, cfg := eng.Totals(), eng.Config()
		if attempted := int64(cfg.Tenants) * int64(cfg.OpsPerTenant); tot.Ops+tot.Sheds != attempted {
			return fmt.Errorf("tenants: %d ops + %d sheds != %d attempted", tot.Ops, tot.Sheds, attempted)
		}
		if err := outputsPlaced(r.live.FS, eng); err != nil {
			return err
		}
		sr.Verified = true
		return nil
	}
	files := []string{sr.Output}
	if _, single := r.lineage[sr.Output]; !single { // a fleet wrote one file per input copy
		files = files[:0]
		for i := range r.inputs() {
			files = append(files, fmt.Sprintf("%s.%d", sr.Output, i))
		}
	}
	for _, file := range files {
		if err := r.equal(file, r.lineage[file]); err != nil {
			return err
		}
	}
	if sr.Reduce != nil {
		want, err := r.reference(r.lineage[sr.Output])
		if err != nil {
			return err
		}
		wantRed := kernels.ReduceStriped(kernels.Stats{}, want, r.s.StripSize/grid.ElemSize)
		// Only the pushdown's canonical strip-order merge is bit-exact.
		if err := checkReduce(sr.Reduce, wantRed, sr.Offloaded); err != nil {
			return err
		}
	}
	sr.Verified = true
	return nil
}

// outputsPlaced holds the tenant outputs to their layouts: a strip of an
// output that any server holds is held by its primary under the output's
// layout too, since an offload stores each result where readers look.
func outputsPlaced(fs *pfs.FileSystem, eng *tenants.Engine) error {
	for i := 0; i < eng.Config().Files; i++ {
		out, ok := fs.Meta(eng.FileName(i) + ".out")
		if !ok {
			return fmt.Errorf("tenants: no output for %s", eng.FileName(i))
		}
		for t := int64(0); t < out.Strips(); t++ {
			primary := out.Layout.Primary(t)
			if fs.Server(primary).Holds(out.Name, t) {
				continue
			}
			for s := 0; s < fs.Servers(); s++ {
				if fs.Server(s).Holds(out.Name, t) {
					return fmt.Errorf("tenants: %s strip %d is held by server %d and not by its primary, server %d",
						out.Name, t, s, primary)
				}
			}
		}
	}
	return nil
}

// checkCacheHits holds the registry to what the kernels counted on their
// own: when every step is a kernel, the cache's hits and hit bytes are the
// sums of the steps' cache_hits and cache_hit_bytes.
func (r *run) checkCacheHits(rec Record) error {
	for _, st := range r.s.Steps {
		if st.Kind != Kernel {
			return nil
		}
	}
	var hits, bytes int64
	for _, sr := range rec.Steps {
		hits += sr.Stats.Int("cache_hits")
		bytes += sr.Stats.Int("cache_hit_bytes")
	}
	reg := r.live.Clu.Counters
	if got, gotBytes := reg.Get("cache.hits"), reg.Get("cache.hit_bytes"); got != hits || gotBytes != bytes {
		return fmt.Errorf("the cache counted %d hits / %d B, its kernels %d hits / %d B", got, gotBytes, hits, bytes)
	}
	return nil
}

// equal fetches a raster file and compares it with the reference its
// lineage names.
func (r *run) equal(file, lineage string) error {
	want, err := r.reference(lineage)
	if err != nil {
		return err
	}
	got, err := r.live.FetchGrid(file)
	if err != nil {
		return fmt.Errorf("%s readback: %w", file, err)
	}
	if !got.Equal(want) {
		return fmt.Errorf("%s diverged from the sequential reference", file)
	}
	return nil
}

// reference computes (once per dataset) the raster a lineage names: the
// input itself, a chain of kernels over it, or the DAG's grid output.
func (r *run) reference(lineage string) (*grid.Grid, error) {
	sys := r.live.System
	return r.data.ref(lineage, func() (*grid.Grid, error) {
		if lineage == "dag:"+r.s.DAG.Name {
			return kernels.ApplyDAG(r.s.DAG, sys.Registry, sys.Combiners, r.data.input)
		}
		k, ok := sys.Registry.Lookup(r.s.Op)
		if !ok {
			return nil, fmt.Errorf("unknown operator %q", r.s.Op)
		}
		// Every lineage but the input's is its parent's plus "/op".
		parent, err := r.reference(lineage[:len(lineage)-len(r.s.Op)-1])
		if err != nil {
			return nil, err
		}
		return kernels.Apply(k, parent), nil
	})
}

// checkReduce verifies a DAG's terminal statistics vector. The pushdown's
// canonical ascending-strip merge reproduces ReduceStriped exactly; the
// per-pass path merges per-server partials, so its float sums agree only
// up to merge order (count/min/max stay exact).
func checkReduce(got, want []float64, exact bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("reduce length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] == want[i] {
			continue
		}
		if !exact && (i == kernels.StatSum || i == kernels.StatSumSq) &&
			math.Abs(got[i]-want[i]) <= 1e-9*math.Abs(want[i]) {
			continue
		}
		return fmt.Errorf("reduce[%d] = %v, want %v", i, got[i], want[i])
	}
	return nil
}

// counters snapshots the platform once the run is over: traffic always,
// then the registry's counters of each subsystem that was deployed (the
// fault layer's when a plan ran), and the tenant engine's totals.
func (r *run) counters() Counters {
	sys, clu := r.live.System, r.live.Clu
	c := Counters{}
	for _, class := range metrics.Classes() {
		c["traffic."+trafficNames[class]] = float64(clu.Traffic.Bytes(class))
	}
	snap := clu.Counters.Snapshot()
	read := func(names ...string) {
		for _, name := range names {
			c[name] = float64(snap[name])
		}
	}
	if len(r.plan.Events) > 0 {
		c["fault.events_applied"] = float64(clu.FaultLog.Len())
		read("recovery.retries", "recovery.timeouts", "recovery.failover_reads",
			"recovery.exec_retries", "recovery.skipped_forwards", "recovery.dropped_messages")
	}
	if sys.Cache != nil {
		c["cache.budget_bytes"] = float64(sys.Cache.Config().BudgetBytes)
		read("cache.hits", "cache.hit_bytes", "cache.evictions", "cache.invalidations", "cache.promotions", "cache.demotions")
		var rate float64
		if looked := snap["cache.hit_bytes"] + snap["cache.miss_bytes"]; looked > 0 {
			rate = float64(snap["cache.hit_bytes"]) / float64(looked)
		}
		c["cache.byte_hit_rate"] = rate
	}
	if sys.Restripe != nil {
		read("restripe.planned", "restripe.completed", "restripe.strips_moved", "restripe.bytes_copied",
			"restripe.zero_copy_flips", "restripe.throttle_stalls", "restripe.resumes", "restripe.recopies")
	}
	if ctl := sys.Control; ctl != nil {
		// Pins move only under the controller: its promotions and demotions
		// are the cache's.
		c["control.promotions"] = float64(snap["cache.promotions"])
		c["control.demotions"] = float64(snap["cache.demotions"])
		read("control.cooldown_suppressed", "control.migration_samples_excluded",
			"control.admissions_allowed", "control.admissions_denied")
		c["control.cluster_p99_ns"] = float64(ctl.ClusterP99())
		// The five hottest files by operations; FileStats sorts by name
		// and the stable sort keeps that order among ties.
		hot := append([]control.FileStat(nil), ctl.FileStats()...)
		sort.SliceStable(hot, func(i, j int) bool { return hot[i].Ops > hot[j].Ops })
		for _, f := range hot[:min(5, len(hot))] {
			c["control.file."+f.File+".ops"] = float64(f.Ops)
			c["control.file."+f.File+".p50_ns"] = float64(f.P50)
			c["control.file."+f.File+".p99_ns"] = float64(f.P99)
			c["control.file."+f.File+".max_ns"] = float64(f.MaxNS)
		}
	}
	if eng := r.live.Tenants; eng != nil {
		tot, fair := eng.Totals(), eng.Fairness()
		c["tenants.ops"] = float64(tot.Ops)
		c["tenants.reads"] = float64(tot.Reads)
		c["tenants.writes"] = float64(tot.Writes)
		c["tenants.offloads"] = float64(tot.Offloads)
		c["tenants.sheds"] = float64(tot.Sheds)
		c["tenants.deferrals"] = float64(tot.Deferrals)
		c["tenants.bytes"] = float64(tot.Bytes)
		c["tenants.offload_remote_bytes"] = float64(tot.RemoteBytes)
		var depthP99, depthMax int64
		for _, q := range eng.QueueStats() {
			depthP99, depthMax = max(depthP99, q.P99), max(depthMax, q.Max)
		}
		c["tenants.queue_depth_p99"] = float64(depthP99)
		c["tenants.queue_depth_max"] = float64(depthMax)
		c["tenants.fair_min_p99_ns"] = float64(fair.MinP99Nanos)
		c["tenants.fair_max_p99_ns"] = float64(fair.MaxP99Nanos)
		c["tenants.fair_spread_ns"] = float64(fair.SpreadNanos)
		for _, f := range eng.TopFiles(5) {
			c["tenants.file."+f.File+".ops"] = float64(f.Ops)
		}
	}
	return c
}
