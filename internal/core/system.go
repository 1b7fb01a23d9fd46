// Package core is the Dynamic Active Storage engine: it ties the
// substrates together and implements the workflow of the paper's Fig. 3 —
// look up the operator's dependence pattern, obtain the file's
// distribution, plan an improved distribution when the workload announces
// successive operations, predict the bandwidth cost, and accept the
// request as active storage or reject it back to normal I/O.
//
// It also provides the three evaluation schemes of §IV-A1 as runnable
// configurations over the same simulated platform:
//
//   - TS (Traditional Storage): servers serve normal I/O, the analysis
//     kernels execute on the compute nodes.
//   - NAS (Normal Active Storage): kernels execute on the storage nodes
//     over the default round-robin distribution, fetching dependent strips
//     from neighbor servers.
//   - DAS (Dynamic Active Storage): the prediction core decides, and the
//     improved dependence-aware distribution makes dependence local.
package core

import (
	"fmt"
	"io"

	"github.com/hpcio/das/internal/active"
	"github.com/hpcio/das/internal/cache"
	"github.com/hpcio/das/internal/cluster"
	"github.com/hpcio/das/internal/control"
	"github.com/hpcio/das/internal/features"
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/pfs"
	"github.com/hpcio/das/internal/pipeline"
	"github.com/hpcio/das/internal/predict"
	"github.com/hpcio/das/internal/restripe"
	"github.com/hpcio/das/internal/sim"
)

// Scheme selects one of the paper's three evaluation configurations.
type Scheme int

const (
	// TS is Traditional Storage: data moves to the compute nodes.
	TS Scheme = iota
	// NAS is Normal Active Storage: blind offloading over round-robin.
	NAS
	// DAS is Dynamic Active Storage: predicted offloading over the
	// improved distribution.
	DAS
)

// String names the scheme as the paper abbreviates it.
func (s Scheme) String() string {
	switch s {
	case TS:
		return "TS"
	case NAS:
		return "NAS"
	case DAS:
		return "DAS"
	default:
		return fmt.Sprintf("scheme(%d)", int(s))
	}
}

// System is one deployed platform: cluster, parallel file system, active
// storage service, kernel and feature registries.
type System struct {
	Clu       *cluster.Cluster
	FS        *pfs.FileSystem
	AS        *active.Service
	Registry  *kernels.Registry
	Reducers  *kernels.ReducerRegistry
	Combiners *kernels.CombinerRegistry
	Features  *features.Registry
	// Pipeline is the server-side operator-pipeline service.
	Pipeline *pipeline.Service
	// Cache is the halo-strip cache subsystem, nil until EnableCache.
	Cache *cache.Manager
	// Restripe is the online restriping subsystem, nil until
	// EnableRestripe.
	Restripe *restripe.Migrator
	// Control is the unified p99 latency controller, nil until
	// EnableControl.
	Control *control.Controller
	// migrator is the system's one migrator: Restripe when deployed,
	// otherwise one the first reconfigure built and kept — never started
	// and never fed by Observe. It hears every strip mutation and is
	// checked at the end of every run.
	migrator *restripe.Migrator
}

// EnableCache deploys the halo-strip cache subsystem: one byte-budgeted
// LRU cache per storage server consulted by dependent fetches, the pfs
// write path invalidating cached strips, and the DAS accept/reject step
// discounting dependent bytes by the observed hit rate. Server restarts
// purge via the fault layer's incarnation counters. Pins move only under
// the controller (EnableControl).
func (s *System) EnableCache(cfg cache.Config) error {
	mgr, err := cache.NewManager(s.Clu.Eng, s.FS.Servers(), cfg,
		func(srv int) uint64 { return s.Clu.Faults.Incarnation(s.Clu.StorageID(srv)) },
		s.Clu.Counters)
	if err != nil {
		return err
	}
	s.Cache = mgr
	s.wire()
	return nil
}

// EnableRestripe deploys the online restriping subsystem: the migrator
// watches every Execute's offload decision and dependent-halo traffic,
// plans grouped-replicated migrations within the overhead budget, and
// copies strips in the background on the DES clock.
func (s *System) EnableRestripe(cfg restripe.Config) error {
	mgr, err := restripe.NewMigrator(s.Clu, s.FS, cfg)
	if err != nil {
		return err
	}
	s.Restripe, s.migrator = mgr, mgr
	s.wire()
	mgr.Start()
	return nil
}

// EnableControl deploys the unified p99 latency controller: one control
// plane owning every adaptive trigger in the system. It subscribes the
// pfs client RPC latencies (migration traffic tagged and excluded), is the
// cache manager's promote/demote trigger when the cache is deployed
// (percentile thresholds with hysteresis and streaks), and gates + watches
// the restripe migrator when
// restriping is deployed (admission only on a congested tail, cool-down
// after any strip flip so the two loops can no longer duel).
func (s *System) EnableControl(cfg control.Config) error {
	ctl, err := control.New(s.Clu.Eng, s.FS.Servers(), cfg, s.Clu.Counters)
	if err != nil {
		return err
	}
	s.Control = ctl
	s.wire()
	ctl.Start()
	return nil
}

// invalidators fans every strip mutation out to its listeners in order.
type invalidators []pfs.StripInvalidator

func (l invalidators) InvalidateStrip(file string, strip int64) {
	for _, inv := range l {
		inv.InvalidateStrip(file, strip)
	}
}

func (l invalidators) InvalidateFile(file string) {
	for _, inv := range l {
		inv.InvalidateFile(file)
	}
}

// wire derives every hook between the deployed subsystems from which of
// them are deployed, so the Enable calls compose in any order: strip
// invalidations reach the cache first and the migrator second, so moved
// strips never serve stale cached bytes; both fetch paths consult the
// cache; and the controller, once there, observes RPC latencies, owns the
// cache's trigger and gates and watches the migrator.
func (s *System) wire() {
	var listeners invalidators
	if s.Cache != nil {
		listeners = append(listeners, s.Cache)
	}
	if s.migrator != nil {
		listeners = append(listeners, s.migrator)
	}
	if len(listeners) > 0 {
		s.FS.SetInvalidator(listeners)
	}
	s.AS.SetCache(s.Cache)
	s.Pipeline.SetCache(s.Cache)
	if s.Control == nil {
		return
	}
	s.FS.SetLatencyObserver(s.Control)
	if s.Cache != nil {
		s.Control.AttachCache(s.Cache)
	}
	if s.Restripe != nil {
		s.Restripe.SetWatcher(s.Control)
		s.Restripe.SetAdmission(s.Control.AllowRestripe)
	}
}

// DrainRestripe runs the engine until every active migration completes or
// the timeout elapses, returning whether the migrator converged and the
// simulated time the drain consumed. A system without the restripe
// subsystem converges trivially.
func (s *System) DrainRestripe(timeout sim.Time) (bool, sim.Time, error) {
	if s.Restripe == nil || s.Restripe.ActiveCount() == 0 {
		return true, 0, nil
	}
	converged := false
	t, err := s.run("restripe-drain", func(p *sim.Proc) error {
		converged = s.Restripe.Drain(p, timeout)
		return nil
	})
	return converged, t, err
}

// NewSystem builds a platform with the default kernel, reducer and
// combiner registries, the active storage service and the operator-
// pipeline service deployed.
func NewSystem(cfg cluster.Config) (*System, error) {
	clu, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	fs := pfs.New(clu)
	reg := kernels.Default()
	reducers := kernels.DefaultReducers()
	combiners := kernels.DefaultCombiners()
	return &System{
		Clu:       clu,
		FS:        fs,
		AS:        active.Deploy(fs, reg, reducers),
		Pipeline:  pipeline.Deploy(fs, reg, combiners, reducers),
		Registry:  reg,
		Reducers:  reducers,
		Combiners: combiners,
		Features:  reg.Features(),
	}, nil
}

// Close tears the platform down: every server daemon's goroutine exits
// and the system's memory becomes collectible. Required when creating
// many systems in one process (sweeps, benchmarks); a closed system must
// not be used again.
func (s *System) Close() {
	s.Clu.Eng.Shutdown()
}

// RunProc executes fn as a named workload process and drives the engine
// until all non-daemon work completes, returning the elapsed simulated
// time. It is the exported door for callers (tools, tests) that need raw
// file-system access against the deployed platform — client writes racing
// a live migration, custom read probes — without reaching into the engine.
func (s *System) RunProc(name string, fn func(p *sim.Proc) error) (sim.Time, error) {
	return s.run(name, fn)
}

// run executes fn as a workload process and drives the engine until all
// non-daemon work completes, returning the elapsed simulated time. At that
// quiescence every request a server received must have been answered
// once, no pipeline run's state may be left on a live server or an ack
// port, no restripe move may still hold its in-flight bytes, and — under
// bufpool.Audit — every stored strip must still hold the bytes it was
// stored with: a dropped or doubled reply, stranded run state, an
// unreturned reservation, or a write into lent strip memory, fails the
// run.
func (s *System) run(name string, fn func(p *sim.Proc) error) (sim.Time, error) {
	start := s.Clu.Eng.Now()
	var inner error
	s.Clu.Eng.Spawn(name, func(p *sim.Proc) { inner = fn(p) })
	if err := s.Clu.Eng.Run(); err != nil {
		return 0, err
	}
	if err := s.Clu.Net.CheckReplies(); err != nil {
		return 0, err
	}
	if err := s.FS.CheckSeals(); err != nil {
		return 0, err
	}
	if err := s.Pipeline.CheckReleased(); err != nil {
		return 0, err
	}
	if s.migrator != nil {
		if err := s.migrator.CheckReleased(); err != nil {
			return 0, err
		}
	}
	if inner != nil {
		return 0, inner
	}
	return s.Clu.Eng.Now() - start, nil
}

// predictParams derives prediction parameters from a raster file's
// metadata.
func predictParams(m *pfs.FileMeta) predict.Params {
	return predict.Params{
		ElemSize:     m.ElemSize,
		StripSize:    m.StripSize,
		FileSize:     m.Size,
		Width:        m.Width,
		OutputFactor: 1,
	}
}

// observations gathers what the platform has measured for a decision about
// the named input file. With servers down the down-set is all that counts:
// hit rates describe the healthy placement. Otherwise the cache, when
// deployed, reports its hit rate.
func (s *System) observations(input string) predict.Observations {
	switch {
	case s.Clu.AnyStorageDown():
		return predict.Observations{Down: s.Clu.ServerDown}
	case s.Cache != nil:
		return predict.Observations{HitFrac: s.Cache.HitRateEstimate(input)}
	}
	return predict.Observations{}
}

// decide is the one accept/reject gate: every DAS path — a kernel, a batch
// of them, a reduction, a whole DAG — prices its request against lay under
// the same observations.
func (s *System) decide(spec predict.Spec, params predict.Params, lay layout.Layout, input string) (predict.Decision, error) {
	return predict.Estimate(spec, params, lay, s.observations(input))
}

// LoadFeatures merges kernel-features records (§III-B, text format) into
// the system's feature registry, overriding derived patterns for
// operators that appear in the stream. This is the file-based Kernel
// Features component of the paper's architecture: operators keep their
// executable kernels, but the dependence description the prediction core
// consults comes from the database.
func (s *System) LoadFeatures(r io.Reader) (int, error) {
	pats, err := features.Parse(r)
	if err != nil {
		return 0, err
	}
	for _, p := range pats {
		if err := s.Features.Register(p); err != nil {
			return 0, err
		}
	}
	return len(pats), nil
}

// PlanLayout returns the data distribution DAS would arrange for an
// operator over a raster of the given geometry: the improved grouped-
// replicated distribution when the operator has dependence, round-robin
// otherwise.
func (s *System) PlanLayout(op string, width int, elemSize, stripSize, fileSize int64, maxOverhead float64) (layout.Layout, error) {
	return s.PlanLayoutForWorkflow([]string{op}, width, elemSize, stripSize, fileSize, maxOverhead)
}

// PlanLayoutForWorkflow returns one data distribution serving every
// operator in a workflow over the same raster: the halo is sized for the
// union of their dependence patterns, so each stage offloads with local
// dependence. This generalizes the paper's successive-operation argument
// to stages with different patterns.
func (s *System) PlanLayoutForWorkflow(ops []string, width int, elemSize, stripSize, fileSize int64, maxOverhead float64) (layout.Layout, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("core: empty workflow")
	}
	pats := make([]features.Pattern, 0, len(ops))
	for _, op := range ops {
		pat, ok := s.Features.Lookup(op)
		if !ok {
			return nil, fmt.Errorf("core: no kernel features for %q", op)
		}
		pats = append(pats, pat)
	}
	merged := features.Union("workflow", pats...)
	if maxOverhead == 0 {
		maxOverhead = predict.DefaultMaxOverhead
	}
	p := predict.Params{ElemSize: elemSize, StripSize: stripSize, FileSize: fileSize, Width: width, OutputFactor: 1}
	lay, ok, err := predict.RecommendLayout(merged, p, s.FS.Servers(), maxOverhead)
	if err != nil {
		return nil, err
	}
	if !ok {
		return layout.NewRoundRobin(s.FS.Servers()), nil
	}
	return lay, nil
}

// IngestGrid creates a raster file under the given layout and writes the
// grid's bytes from compute node 0. It returns the simulated ingest time,
// which experiment reports keep separate from operation time. Strips hold
// whole elements: a strip size that would cut one is refused before the
// file exists.
func (s *System) IngestGrid(name string, g *grid.Grid, lay layout.Layout, stripSize int64) (sim.Time, error) {
	if stripSize == 0 {
		stripSize = pfs.DefaultStripSize
	}
	if stripSize%grid.ElemSize != 0 {
		return 0, fmt.Errorf("core: %q is not a %dx%d raster in strips of whole elements", name, g.W, g.H)
	}
	_, err := s.FS.Create(name, g.SizeBytes(), lay, pfs.CreateOptions{
		StripSize: stripSize,
		Width:     g.W,
		Height:    g.H,
		ElemSize:  grid.ElemSize,
	})
	if err != nil {
		return 0, err
	}
	// A view of the caller's raster: it is client memory before and after
	// the call, and each primary copies its strips as they enter.
	data := grid.Bytes(g.Data)
	return s.run("ingest-"+name, func(p *sim.Proc) error {
		return s.FS.NewClient(s.Clu.ComputeID(0)).WriteAll(p, name, data)
	})
}

// FetchGrid reads a raster file back into memory (for verification), each
// stored strip decoded from where it lies into its place in the grid.
func (s *System) FetchGrid(name string) (*grid.Grid, error) {
	m, ok := s.FS.Meta(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown file %q", name)
	}
	if want := int64(m.Width) * int64(m.Height) * grid.ElemSize; want != m.Size || m.StripSize%grid.ElemSize != 0 {
		return nil, fmt.Errorf("core: %q is not a %dx%d raster in strips of whole elements", name, m.Width, m.Height)
	}
	g := grid.New(m.Width, m.Height)
	_, err := s.run("fetch-"+name, func(p *sim.Proc) error {
		return s.FS.NewClient(s.Clu.ComputeID(0)).ReadLent(p, name, 0, m.Size, func(at int64, window []byte) {
			e := at / grid.ElemSize
			// Whole elements, checked above, into capacity the grid has.
			_, _ = grid.FloatsFromBytesInto(g.Data[e:e], window)
		})
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// Request describes one operation submission.
type Request struct {
	// Op is the operator name (must exist in the kernel registry).
	Op string
	// Input names an existing raster file; Output will be created with the
	// input's geometry and layout.
	Input, Output string
	// Scheme selects TS, NAS, or DAS.
	Scheme Scheme
	// NASFetchMode selects the NAS dependent-data transport
	// (FetchWholeStrips by default; FetchRows for the optimized ablation).
	NASFetchMode active.FetchMode
	// Reconfigure lets DAS migrate the input to the planned layout before
	// executing (the workflow's "Reconfig Parallel File System" box). When
	// false, DAS requires the input to already be laid out appropriately
	// (the successive-operation fast path) and otherwise rejects.
	Reconfigure bool
	// DisablePrediction makes DAS skip the accept/reject step and offload
	// unconditionally (ablation).
	DisablePrediction bool
}

// Report is the outcome of one operation.
type Report struct {
	Scheme    Scheme
	Op        string
	Offloaded bool
	// Decision is the prediction core's verdict (DAS only): for a
	// reconfigured request, the one it migrated on.
	Decision *predict.Decision
	// Reconfigured notes that DAS migrated the input layout, and
	// ReconfigTime is what the migration cost (included in ExecTime).
	Reconfigured bool
	ReconfigTime sim.Time
	ExecTime     sim.Time
	Stats        active.ExecStats
	// Degraded notes that storage-server faults forced the request off its
	// preferred path — an offload that fell back to normal I/O, or a DAS
	// decision vetoed because strips had no live copy. DegradedReason says
	// why; ExecTime includes any time the abandoned attempt consumed.
	Degraded       bool
	DegradedReason string
	// Traffic holds the byte deltas this operation moved, per class.
	Traffic map[metrics.TrafficClass]int64
	// ServerLoad holds the per-storage-server resource busy time this
	// operation added — the load the paper says blind offloading inflates.
	ServerLoad cluster.Utilization
}

// BusiestResource is the longest any one resource worked for this
// operation: a storage server's disk, either direction of its NIC, or a
// worker's CPU (Stats.PhaseMax.Compute). Job startup plus this is a bound
// no schedule of the same work on the same platform beats — what ExecTime
// is set against.
func (r Report) BusiestResource() sim.Time {
	return busiestResource(r.Stats.PhaseMax.Compute, r.ServerLoad)
}

// busiestResource is the longest any one resource worked: a worker's CPU
// (compute, the critical path's), or a storage server's disk or either
// direction of its NIC (load).
func busiestResource(compute sim.Time, load cluster.Utilization) sim.Time {
	return max(compute, load.Busiest())
}

// Execute runs one operation to completion and reports what happened.
func (s *System) Execute(req Request) (Report, error) {
	in, err := s.kernelInput(req)
	if err != nil {
		return Report{}, err
	}
	rep := Report{Scheme: req.Scheme, Op: req.Op}
	rep.Traffic, rep.ServerLoad, err = s.measure(func() error { return s.execute(&rep, req, in) })
	if err != nil {
		return Report{}, err
	}
	s.observeRestripe(req, in, &rep)
	return rep, nil
}

// kernelInput is every front door's input check (pfs.FileSystem.Raster)
// for a kernel request, whose operator must be registered too.
func (s *System) kernelInput(req Request) (*pfs.FileMeta, error) {
	m, err := s.FS.Raster(req.Input)
	if err != nil {
		return nil, err
	}
	if _, ok := s.Registry.Lookup(req.Op); !ok {
		return nil, fmt.Errorf("core: unknown operator %q", req.Op)
	}
	return m, nil
}

// measure runs fn and returns the bytes it moved per traffic class and the
// busy time it added to each storage server's resources.
func (s *System) measure(fn func() error) (map[metrics.TrafficClass]int64, cluster.Utilization, error) {
	before := s.Clu.Traffic.Snapshot()
	loadBefore := s.Clu.UtilizationSnapshot()
	if err := fn(); err != nil {
		return nil, cluster.Utilization{}, err
	}
	after := s.Clu.Traffic.Snapshot()
	traffic := make(map[metrics.TrafficClass]int64, len(after))
	for c, b := range after {
		traffic[c] = b - before[c]
	}
	return traffic, s.Clu.UtilizationSnapshot().Sub(loadBefore), nil
}

// observeRestripe feeds the finished operation's dependent-traffic
// evidence to the online restriper: the halo bytes an offload actually
// fetched between servers, or — when the predictor rejected the offload —
// the dependent bytes the analysis says an offload would have moved. The
// migrator accumulates the evidence per input file and plans a migration
// once it crosses the trigger threshold.
func (s *System) observeRestripe(req Request, m *pfs.FileMeta, rep *Report) {
	if s.Restripe == nil {
		return
	}
	pat, ok := s.Features.Lookup(req.Op)
	if !ok {
		return
	}
	observed := rep.Stats.RemoteBytes
	if !rep.Offloaded && rep.Decision != nil && !rep.Decision.Offload {
		observed += rep.Decision.Analysis.StripFetchBytes
	}
	s.Restripe.Observe(req.Input, pat, predictParams(m), observed)
}

// ExecutePipeline runs a sequence of operators, each consuming the
// previous stage's output — the paper's successive-operation workload
// (flow-routing → flow-accumulation). Intermediates are named
// "<input>.<op>.<stage>"; the final output carries the last stage's name.
// Under DAS every intermediate inherits the improved layout, so
// successors offload without reconfiguration or dependent-data movement.
func (s *System) ExecutePipeline(scheme Scheme, input string, ops []string) ([]Report, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("core: empty pipeline")
	}
	reports := make([]Report, 0, len(ops))
	cur := input
	for i, op := range ops {
		out := fmt.Sprintf("%s.%s.%d", input, op, i+1)
		rep, err := s.Execute(Request{Op: op, Input: cur, Output: out, Scheme: scheme})
		if err != nil {
			return reports, fmt.Errorf("core: pipeline stage %d (%s): %w", i+1, op, err)
		}
		reports = append(reports, rep)
		cur = out
	}
	return reports, nil
}

// PipelineOutput returns the file name ExecutePipeline gave its final
// stage's output.
func PipelineOutput(input string, ops []string) string {
	return fmt.Sprintf("%s.%s.%d", input, ops[len(ops)-1], len(ops))
}
