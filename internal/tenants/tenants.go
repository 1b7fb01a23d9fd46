// Package tenants is the multi-tenant traffic engine: thousands of
// closed-loop client streams replayed over hundreds of files on the DES
// clock. Each tenant draws files from a Zipf popularity distribution
// (the YCSB-style skew of ScaleStore's evaluation), issues a weighted
// mix of strip reads, strip writes, and active-storage offloads, and
// switches workload mid-run at configured phase boundaries (hot-set
// rotation, read-heavy to write-heavy). A per-server admission gate
// bounds queue depth with deterministic deferral and shedding, and
// per-tenant latency sketches make cross-tenant fairness — the spread
// of per-tenant p99 — a first-class measurement.
//
// The engine deliberately depends only on the substrate layers (cluster,
// pfs, active, workload, metrics): the adaptive subsystems observe it
// through two narrow outbound hooks — a per-file operation-latency
// observer (the control plane's per-file heat signal) and a per-offload
// dependent-bytes observer (the restriper's migration evidence) — wired
// up by the experiment harness. Everything runs on the DES clock through
// explicitly seeded splitmix64 RNGs; two equally configured runs are
// byte-identical.
package tenants

import (
	"errors"
	"fmt"
	"sort"

	"github.com/hpcio/das/internal/active"
	"github.com/hpcio/das/internal/cluster"
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/pfs"
	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/workload"
)

// Mix weighs the operation kinds a tenant stream draws from. Weights are
// relative; a zero weight disables the kind.
type Mix struct {
	Read    int `json:"read"`
	Write   int `json:"write"`
	Offload int `json:"offload"`
}

func (m Mix) total() int { return m.Read + m.Write + m.Offload }

func (m Mix) validate() error {
	if m.Read < 0 || m.Write < 0 || m.Offload < 0 {
		return fmt.Errorf("tenants: negative mix weight %+v", m)
	}
	if m.total() == 0 {
		return fmt.Errorf("tenants: empty operation mix")
	}
	return nil
}

// Phase is one mid-run workload change: from tenant-local operation index
// FromOp onward, the stream uses Mix and adds Rotate to the rank-to-file
// mapping — rotating the Zipf head onto a different set of files (the
// hot-set rotation that forces adaptive placement to re-converge).
type Phase struct {
	FromOp int `json:"from_op"`
	Mix    Mix `json:"mix"`
	Rotate int `json:"rotate"`
}

// Config sizes one multi-tenant run. The zero value is not usable;
// Normalize fills defaults sized for tests and validates the rest.
type Config struct {
	// Tenants is the number of concurrent closed-loop client streams.
	Tenants int
	// Files is the number of distinct files the streams draw from.
	Files int
	// StripsPerFileMin/Max bound the per-file strip counts; each file's
	// actual count is a deterministic draw from the seed.
	StripsPerFileMin int
	StripsPerFileMax int
	// StripSize is the PFS strip size; one strip is one raster row, so
	// the row width is StripSize / grid.ElemSize elements.
	StripSize int64
	// OpsPerTenant is how many operations each stream issues.
	OpsPerTenant int
	// ZipfSkew is the file-popularity exponent (1.1 ≈ heavily skewed).
	ZipfSkew float64
	// Seed feeds every RNG in the run (file sizes, contents, per-tenant
	// streams).
	Seed uint64
	// Mix is the initial operation mix; Phases may replace it mid-run.
	Mix Mix
	// Phases are mid-run workload changes, ascending by FromOp.
	Phases []Phase
	// ThinkTime is the mean idle gap between a tenant's operations
	// (jittered per tenant); zero means a tight closed loop.
	ThinkTime sim.Time
	// MaxQueueDepth bounds the per-server outstanding-RPC depth the
	// admission gate tolerates; 0 disables admission (unbounded).
	MaxQueueDepth int
	// ShedBackoff and ShedRetries shape deferral: an operation finding
	// its servers saturated sleeps ShedBackoff and retries, up to
	// ShedRetries times, before the operation is shed.
	ShedBackoff sim.Time
	ShedRetries int
	// Op is the operator offload operations run.
	Op string
}

// Normalize fills zero fields with defaults and validates the rest.
func (c Config) Normalize() (Config, error) {
	if c.Tenants == 0 {
		c.Tenants = 64
	}
	if c.Files == 0 {
		c.Files = 32
	}
	if c.StripsPerFileMin == 0 {
		c.StripsPerFileMin = 4
	}
	if c.StripsPerFileMax == 0 {
		c.StripsPerFileMax = 12
	}
	if c.StripSize == 0 {
		c.StripSize = 64 * 1024
	}
	if c.OpsPerTenant == 0 {
		c.OpsPerTenant = 8
	}
	if c.ZipfSkew == 0 {
		c.ZipfSkew = 1.1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Mix == (Mix{}) {
		c.Mix = Mix{Read: 70, Write: 20, Offload: 10}
	}
	if c.ThinkTime == 0 {
		c.ThinkTime = 200 * sim.Microsecond
	}
	if c.ShedBackoff == 0 {
		c.ShedBackoff = 500 * sim.Microsecond
	}
	if c.ShedRetries == 0 {
		c.ShedRetries = 3
	}
	if c.Op == "" {
		c.Op = "gaussian-filter"
	}
	switch {
	case c.Tenants < 0, c.Files < 0, c.OpsPerTenant < 0:
		return c, fmt.Errorf("tenants: negative population (%d tenants, %d files, %d ops)", c.Tenants, c.Files, c.OpsPerTenant)
	case c.StripsPerFileMin < 1 || c.StripsPerFileMax < c.StripsPerFileMin:
		return c, fmt.Errorf("tenants: strips per file [%d,%d] invalid", c.StripsPerFileMin, c.StripsPerFileMax)
	case c.StripSize < grid.ElemSize || c.StripSize%grid.ElemSize != 0:
		return c, fmt.Errorf("tenants: strip size %d not a positive multiple of the element size", c.StripSize)
	case c.ZipfSkew <= 0:
		return c, fmt.Errorf("tenants: Zipf skew %v must be positive", c.ZipfSkew)
	case c.ThinkTime < 0 || c.ShedBackoff < 0:
		return c, fmt.Errorf("tenants: negative think time or backoff")
	case c.MaxQueueDepth < 0:
		return c, fmt.Errorf("tenants: negative queue-depth bound %d", c.MaxQueueDepth)
	case c.ShedRetries < 0:
		return c, fmt.Errorf("tenants: negative shed retries %d", c.ShedRetries)
	}
	if err := c.Mix.validate(); err != nil {
		return c, err
	}
	for i, ph := range c.Phases {
		if err := ph.Mix.validate(); err != nil {
			return c, fmt.Errorf("tenants: phase %d: %w", i, err)
		}
		if ph.FromOp <= 0 {
			return c, fmt.Errorf("tenants: phase %d starts at op %d (must be > 0)", i, ph.FromOp)
		}
		if i > 0 && ph.FromOp <= c.Phases[i-1].FromOp {
			return c, fmt.Errorf("tenants: phases out of order at index %d", i)
		}
		if ph.Rotate < 0 {
			return c, fmt.Errorf("tenants: phase %d negative rotation %d", i, ph.Rotate)
		}
	}
	return c, nil
}

// FileObserver receives one sample per completed tenant operation against
// the file it touched. control.Controller implements it.
type FileObserver interface {
	ObserveFileOp(file string, lat sim.Time)
}

// fileInfo is one generated file's fixed identity.
type fileInfo struct {
	name   string
	out    string
	strips int64
	size   int64
}

// tenantState is one closed-loop stream. All fields are engine-goroutine
// state: the DES engine runs one process at a time, so plain ints are
// safe even under the race detector.
type tenantState struct {
	id   int
	rng  *workload.RNG
	zipf *workload.Zipf
	lat  *metrics.LatencySketch

	client *pfs.Client
	as     *active.Client

	wbuf []byte // pre-encoded strip write payload (valid float64 cells)

	ops, reads, writes, offloads int64
	sheds, deferrals             int64
	bytes                        int64
	remoteBytes                  int64
}

// Engine is one multi-tenant run over a deployed platform.
type Engine struct {
	clu *cluster.Cluster
	fs  *pfs.FileSystem
	cfg Config

	layoutFor  func(i int, strips int64) layout.Layout
	fileObs    FileObserver
	offloadObs func(file string, remoteBytes int64)

	files   []fileInfo
	perm    []int // rank -> file index, rotated by the active phase
	tenants []*tenantState
	fileOps []int64 // per-file completed operations

	queues []*metrics.LatencySketch // per-server arrival queue depths
	// tickets counts admitted, not-yet-completed operations per server:
	// the reservation half of the admission gate. The sampled RPC depth
	// alone cannot bound a herd — every stream checking between another's
	// admission and its first RPC would see an empty queue — so admission
	// holds a ticket from the admit decision to operation completion.
	tickets []int
	// servers lists every server id once, built in New: an offload's
	// admission targets are all of it and a point operation's one entry
	// of it, so admission allocates nothing.
	servers  []int
	shedsBy  []int64 // per-server shed attribution
	setupRan bool
	runRan   bool
}

// New builds an engine over a deployed cluster and file system. Offload
// operations additionally require the active-storage helpers (deployed by
// core.NewSystem or active.Deploy) to be listening.
func New(clu *cluster.Cluster, fs *pfs.FileSystem, cfg Config) (*Engine, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	e := &Engine{
		clu: clu,
		fs:  fs,
		cfg: cfg,
		layoutFor: func(int, int64) layout.Layout {
			return layout.NewRoundRobin(fs.Servers())
		},
		fileOps: make([]int64, cfg.Files),
	}
	for s := 0; s < fs.Servers(); s++ {
		e.queues = append(e.queues, metrics.NewLatencySketch())
	}
	e.tickets = make([]int, fs.Servers())
	e.servers = make([]int, fs.Servers())
	for s := range e.servers {
		e.servers[s] = s
	}
	e.shedsBy = make([]int64, fs.Servers())
	return e, nil
}

// Config returns the normalized configuration.
func (e *Engine) Config() Config { return e.cfg }

// SetLayouts overrides the per-file layout policy (round-robin by
// default). Called before Setup.
func (e *Engine) SetLayouts(fn func(i int, strips int64) layout.Layout) { e.layoutFor = fn }

// SetFileObserver wires the per-file operation-latency sink (the control
// plane's heat signal). Nil disables.
func (e *Engine) SetFileObserver(o FileObserver) { e.fileObs = o }

// SetOffloadObserver wires the per-offload dependent-bytes sink (the
// restriper's migration evidence). Nil disables.
func (e *Engine) SetOffloadObserver(fn func(file string, remoteBytes int64)) { e.offloadObs = fn }

// FileName returns the i-th file's name (files are created by Setup).
func (e *Engine) FileName(i int) string { return fmt.Sprintf("tfile-%03d", i) }

// Setup creates and ingests every file: deterministic per-file strip
// counts drawn from the seed, raster contents from the workload image
// generator, the layout from the configured policy started on server
// i mod D for file i, plus a same-geometry output file per input, with the
// same layout (and kept so by each offload), for offload results. Ingest
// writes run concurrently, one child process per file.
func (e *Engine) Setup(p *sim.Proc) error {
	if e.setupRan {
		return fmt.Errorf("tenants: Setup already ran")
	}
	e.setupRan = true
	rng := workload.NewRNG(e.cfg.Seed)
	width := int(e.cfg.StripSize / grid.ElemSize)
	for i := 0; i < e.cfg.Files; i++ {
		strips := int64(e.cfg.StripsPerFileMin)
		if span := e.cfg.StripsPerFileMax - e.cfg.StripsPerFileMin; span > 0 {
			strips += rng.Intn(int64(span) + 1)
		}
		e.files = append(e.files, fileInfo{
			name:   e.FileName(i),
			out:    e.FileName(i) + ".out",
			strips: strips,
			size:   strips * e.cfg.StripSize,
		})
	}
	// Rank-to-file permutation: which files are popular is itself a
	// deterministic draw, so popularity does not correlate with file index
	// (and hence with layout placement).
	e.perm = make([]int, e.cfg.Files)
	for i := range e.perm {
		e.perm[i] = i
	}
	for i := int64(len(e.perm)) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		e.perm[i], e.perm[j] = e.perm[j], e.perm[i]
	}
	sigs := make([]*sim.Signal[error], 0, len(e.files))
	for i := range e.files {
		f := &e.files[i]
		// File i starts on server i mod D: with every file's strip 0 on
		// server 0, the hot files' first strips — and the first group of
		// every file the migrator regroups — would queue on one disk.
		lay := layout.StartingAt(e.layoutFor(i, f.strips), i%e.fs.Servers())
		opts := pfs.CreateOptions{
			StripSize: e.cfg.StripSize,
			Width:     width,
			Height:    int(f.strips),
			ElemSize:  grid.ElemSize,
		}
		if _, err := e.fs.Create(f.name, f.size, lay, opts); err != nil {
			return err
		}
		if _, err := e.fs.Create(f.out, f.size, lay, opts); err != nil {
			return err
		}
		g := workload.Image(width, int(f.strips), e.cfg.Seed^(uint64(i+1)*0x9e3779b97f4a7c15), 0.05)
		// A view of the raster: each primary copies its strips as they
		// enter, and nothing writes g meanwhile.
		data := grid.Bytes(g.Data)
		node := e.clu.ComputeID(i % e.clu.Cfg.ComputeNodes)
		done := sim.NewSignal[error](e.clu.Eng, "tenants-ingest")
		sigs = append(sigs, done)
		p.Spawn("tenants-ingest", func(w *sim.Proc) {
			done.Fire(e.fs.NewClient(node).WriteAll(w, f.name, data))
		})
	}
	for _, err := range sim.WaitAll(p, sigs) {
		if err != nil {
			return err
		}
	}
	return nil
}

// Run replays every tenant stream to completion. Queue-depth sampling is
// active only while the streams run, so ingest traffic never pollutes the
// saturation measurement. Once every stream is done, every admission
// ticket must have come back (checkTickets).
func (e *Engine) Run(p *sim.Proc) error {
	if !e.setupRan {
		return fmt.Errorf("tenants: Run before Setup")
	}
	if e.runRan {
		return fmt.Errorf("tenants: Run already ran")
	}
	e.runRan = true
	e.fs.SetQueueObserver(func(srv, depth int) {
		if srv >= 0 && srv < len(e.queues) {
			e.queues[srv].ObserveValue(int64(depth))
		}
	})
	sigs := make([]*sim.Signal[error], 0, e.cfg.Tenants)
	for i := 0; i < e.cfg.Tenants; i++ {
		t := e.newTenant(i)
		e.tenants = append(e.tenants, t)
		done := sim.NewSignal[error](e.clu.Eng, "tenant")
		sigs = append(sigs, done)
		p.Spawn("tenant", func(tp *sim.Proc) {
			done.Fire(e.runTenant(tp, t))
		})
	}
	var first error
	for _, err := range sim.WaitAll(p, sigs) {
		if err != nil && first == nil {
			first = err
		}
	}
	e.fs.SetQueueObserver(nil)
	return errors.Join(first, e.checkTickets())
}

// checkTickets reports the first server, in index order, that still holds
// admission tickets with no stream running: an admitted operation that
// never released its reservation, which would hold the server's gate
// shut for every later operation.
func (e *Engine) checkTickets() error {
	for s, n := range e.tickets {
		if n != 0 {
			return fmt.Errorf("tenants: server %d holds %d admission tickets after the streams ended", s, n)
		}
	}
	return nil
}

// newTenant builds one stream's state: its own RNG (derived from the run
// seed and the tenant id), Zipf sampler, latency sketch, clients bound to
// a compute node, and a write payload pre-encoded as valid float64 cells
// — raw random bytes could decode to platform-dependent NaN patterns and
// break byte-identity once a kernel processes them.
func (e *Engine) newTenant(id int) *tenantState {
	rng := workload.NewRNG(e.cfg.Seed ^ (uint64(id+1) * 0xbf58476d1ce4e5b9))
	z, err := workload.NewZipf(rng, e.cfg.Files, e.cfg.ZipfSkew)
	if err != nil {
		panic(err) // Normalize validated Files and ZipfSkew
	}
	node := e.clu.ComputeID(id % e.clu.Cfg.ComputeNodes)
	vals := make([]float64, e.cfg.StripSize/grid.ElemSize)
	for i := range vals {
		vals[i] = rng.Float()
	}
	return &tenantState{
		id:     id,
		rng:    rng,
		zipf:   z,
		lat:    metrics.NewLatencySketch(),
		client: e.fs.NewClient(node),
		as:     active.NewClient(e.fs, node),
		wbuf:   grid.FloatsToBytes(vals),
	}
}

// phaseAt returns the mix and hot-set rotation in effect at a
// tenant-local operation index.
func (e *Engine) phaseAt(op int) (Mix, int) {
	mix, rotate := e.cfg.Mix, 0
	for _, ph := range e.cfg.Phases {
		if op >= ph.FromOp {
			mix, rotate = ph.Mix, ph.Rotate
		}
	}
	return mix, rotate
}

// pickKind draws an operation kind from the mix weights.
func pickKind(rng *workload.RNG, mix Mix) int {
	x := rng.Intn(int64(mix.total()))
	switch {
	case x < int64(mix.Read):
		return opRead
	case x < int64(mix.Read+mix.Write):
		return opWrite
	default:
		return opOffload
	}
}

const (
	opRead = iota
	opWrite
	opOffload
)

// runTenant is one stream's closed loop: draw a file from the Zipf
// distribution under the active phase, pass admission, issue the
// operation, record its latency, think, repeat.
func (e *Engine) runTenant(p *sim.Proc, t *tenantState) error {
	if e.cfg.ThinkTime > 0 {
		// Stagger stream starts so the run does not open with a lockstep
		// burst from every tenant at t=0.
		p.Sleep(sim.Time(t.rng.Intn(int64(e.cfg.ThinkTime) * 8)))
	}
	for op := 0; op < e.cfg.OpsPerTenant; op++ {
		mix, rotate := e.phaseAt(op)
		kind := pickKind(t.rng, mix)
		rank := int(t.zipf.Sample())
		fi := e.perm[(rank+rotate)%len(e.perm)]
		f := &e.files[fi]
		strip := t.rng.Intn(f.strips)

		held, ok := e.admit(p, t, f, kind, strip)
		if !ok {
			t.sheds++
			continue
		}
		start := p.Now()
		var err error
		switch kind {
		case opRead:
			off := strip * e.cfg.StripSize
			err = t.client.ReadLent(p, f.name, off, e.cfg.StripSize, func(_ int64, window []byte) {
				t.bytes += int64(len(window))
			})
			t.reads++
		case opWrite:
			off := strip * e.cfg.StripSize
			err = t.client.Write(p, f.name, off, t.wbuf)
			t.writes++
			t.bytes += e.cfg.StripSize
		default:
			var stats active.ExecStats
			stats, err = e.offload(p, t.as, f)
			t.offloads++
			t.bytes += f.size
			t.remoteBytes += stats.RemoteBytes
			if err == nil && e.offloadObs != nil {
				e.offloadObs(f.name, stats.RemoteBytes)
			}
		}
		e.release(held)
		if err != nil {
			return fmt.Errorf("tenants: tenant %d op %d on %s: %w", t.id, op, f.name, err)
		}
		lat := p.Now() - start
		t.lat.Observe(lat)
		t.ops++
		e.fileOps[fi]++
		if e.fileObs != nil {
			e.fileObs.ObserveFileOp(f.name, lat)
		}
		if e.cfg.ThinkTime > 0 {
			p.Sleep(e.cfg.ThinkTime + sim.Time(t.rng.Intn(int64(e.cfg.ThinkTime))))
		}
	}
	return nil
}

// offload runs the operator over a file into its output. The output is
// first placed as its input is now — the rule core applies when it creates
// an output — because the offload stores each result where the output's
// layout says: after a restripe moved the input, a stale output layout
// would send every strip to a server that must fetch it.
func (e *Engine) offload(p *sim.Proc, as *active.Client, f *fileInfo) (active.ExecStats, error) {
	in, _ := e.fs.Meta(f.name)
	if err := e.fs.SetLayout(f.out, layout.Concrete(in.Layout, f.strips)); err != nil {
		return active.ExecStats{}, err
	}
	return as.Exec(p, e.cfg.Op, f.name, f.out, active.FetchWholeStrips)
}

// admit is the per-server admission gate. A read or write targets one
// server — the strip's primary — and that queue, measured as the larger
// of the reservation count and the sampled in-flight RPC depth, must sit
// below the bound. An offload dispatches cluster-wide and spreads its
// work across every server, so it is gated on the mean depth across the
// cluster instead: judging global work by the single hottest queue would
// starve offloads entirely whenever any one server runs hot, while the
// point-operation gate is already shedding load off that server. An
// admitted operation reserves its expected per-server RPC footprint in
// tickets — one for a point operation, roughly two halo fetches per
// resident strip for an offload — and holds them until it completes.
// The reservation closes the check-to-arrival gap (a herd of streams
// checking in the same simulated instant cannot all slip past an empty
// queue) and makes concurrent offloads self-limit instead of stacking
// their fetch fan-in onto queues that looked empty at dispatch. A
// saturated target defers the operation (bounded backoff sleeps); an
// operation still blocked after the retries is shed — the caller skips
// it entirely, so a saturated server receives less work instead of more.
// Returns the reserved tickets (none when admission is unbounded) and
// whether the operation may proceed.
func (e *Engine) admit(p *sim.Proc, t *tenantState, f *fileInfo, kind int, strip int64) (grant, bool) {
	if e.cfg.MaxQueueDepth <= 0 {
		return grant{}, true
	}
	g := grant{targets: e.servers, weight: 1}
	if kind == opOffload {
		n := int64(len(g.targets))
		g.weight = max(int((2*f.strips+n-1)/n), 1)
	} else {
		m, ok := e.fs.Meta(f.name)
		if !ok {
			return grant{}, true // unknown file: let the operation surface the error
		}
		s := m.Layout.Primary(strip)
		g.targets = e.servers[s : s+1]
	}
	for try := 0; ; try++ {
		hot, depth := e.hottest(g.targets)
		gate := depth
		if kind == opOffload {
			gate = e.meanDepth(g.targets)
		}
		if gate < e.cfg.MaxQueueDepth {
			for _, s := range g.targets {
				e.tickets[s] += g.weight
			}
			return g, true
		}
		if try >= e.cfg.ShedRetries {
			e.shedsBy[hot]++
			return grant{}, false
		}
		t.deferrals++
		p.Sleep(e.cfg.ShedBackoff)
	}
}

// grant is an admitted operation's reservation: weight tickets on each of
// targets.
type grant struct {
	targets []int
	weight  int
}

// release returns an admitted operation's tickets.
func (e *Engine) release(g grant) {
	for _, s := range g.targets {
		e.tickets[s] -= g.weight
	}
}

// hottest returns the busiest of the target servers and its effective
// depth: max(reserved tickets, sampled in-flight RPCs).
func (e *Engine) hottest(targets []int) (int, int) {
	hot, depth := targets[0], -1
	for _, s := range targets {
		d := e.tickets[s]
		if q := e.fs.QueueDepth(s); q > d {
			d = q
		}
		if d > depth {
			hot, depth = s, d
		}
	}
	return hot, depth
}

// meanDepth returns the average effective depth across the target
// servers — the admission signal for cluster-wide operations.
func (e *Engine) meanDepth(targets []int) int {
	sum := 0
	for _, s := range targets {
		d := e.tickets[s]
		if q := e.fs.QueueDepth(s); q > d {
			d = q
		}
		sum += d
	}
	return sum / len(targets)
}

// TenantStats is one stream's accounting.
type TenantStats struct {
	Tenant    int   `json:"tenant"`
	Ops       int64 `json:"ops"`
	Reads     int64 `json:"reads"`
	Writes    int64 `json:"writes"`
	Offloads  int64 `json:"offloads"`
	Sheds     int64 `json:"sheds"`
	Deferrals int64 `json:"deferrals"`
	Bytes     int64 `json:"bytes"`
	P50Nanos  int64 `json:"p50_ns"`
	P99Nanos  int64 `json:"p99_ns"`
	MaxNanos  int64 `json:"max_ns"`
}

// TenantStats returns per-stream accounting in tenant order.
func (e *Engine) TenantStats() []TenantStats {
	out := make([]TenantStats, 0, len(e.tenants))
	for _, t := range e.tenants {
		out = append(out, TenantStats{
			Tenant:    t.id,
			Ops:       t.ops,
			Reads:     t.reads,
			Writes:    t.writes,
			Offloads:  t.offloads,
			Sheds:     t.sheds,
			Deferrals: t.deferrals,
			Bytes:     t.bytes,
			P50Nanos:  int64(t.lat.Quantile(50)),
			P99Nanos:  int64(t.lat.Quantile(99)),
			MaxNanos:  int64(t.lat.Max()),
		})
	}
	return out
}

// QueueStats is one server's arrival-sampled queue-depth distribution.
type QueueStats struct {
	Server  int   `json:"server"`
	Samples int64 `json:"samples"`
	P50     int64 `json:"p50"`
	P99     int64 `json:"p99"`
	Max     int64 `json:"max"`
	Sheds   int64 `json:"sheds"`
}

// QueueStats returns per-server queue-depth distributions in server order.
func (e *Engine) QueueStats() []QueueStats {
	out := make([]QueueStats, 0, len(e.queues))
	for s, q := range e.queues {
		out = append(out, QueueStats{
			Server:  s,
			Samples: q.Count(),
			P50:     q.QuantileValue(50),
			P99:     q.QuantileValue(99),
			Max:     q.MaxValue(),
			Sheds:   e.shedsBy[s],
		})
	}
	return out
}

// Totals aggregates the run.
type Totals struct {
	Ops         int64 `json:"ops"`
	Reads       int64 `json:"reads"`
	Writes      int64 `json:"writes"`
	Offloads    int64 `json:"offloads"`
	Sheds       int64 `json:"sheds"`
	Deferrals   int64 `json:"deferrals"`
	Bytes       int64 `json:"bytes"`
	RemoteBytes int64 `json:"offload_remote_bytes"`
}

// Totals returns the run's aggregate accounting.
func (e *Engine) Totals() Totals {
	var tot Totals
	for _, t := range e.tenants {
		tot.Ops += t.ops
		tot.Reads += t.reads
		tot.Writes += t.writes
		tot.Offloads += t.offloads
		tot.Sheds += t.sheds
		tot.Deferrals += t.deferrals
		tot.Bytes += t.bytes
		tot.RemoteBytes += t.remoteBytes
	}
	return tot
}

// Fairness is the cross-tenant p99 spread: how far apart the
// best-treated and worst-treated streams' tails sit. Only streams that
// completed at least one operation count.
type Fairness struct {
	Tenants     int   `json:"tenants"`
	MinP99Nanos int64 `json:"min_p99_ns"`
	MaxP99Nanos int64 `json:"max_p99_ns"`
	SpreadNanos int64 `json:"spread_ns"`
}

// Fairness returns the cross-tenant p99 spread.
func (e *Engine) Fairness() Fairness {
	var f Fairness
	for _, t := range e.tenants {
		if t.lat.Count() == 0 {
			continue
		}
		p99 := int64(t.lat.Quantile(99))
		if f.Tenants == 0 || p99 < f.MinP99Nanos {
			f.MinP99Nanos = p99
		}
		if p99 > f.MaxP99Nanos {
			f.MaxP99Nanos = p99
		}
		f.Tenants++
	}
	f.SpreadNanos = f.MaxP99Nanos - f.MinP99Nanos
	return f
}

// FileOps is one file's completed-operation count.
type FileOps struct {
	File string `json:"file"`
	Ops  int64  `json:"ops"`
}

// TopFiles returns the n most-operated files (ops descending, name
// ascending on ties); n <= 0 returns every file with at least one
// operation.
func (e *Engine) TopFiles(n int) []FileOps {
	out := make([]FileOps, 0, len(e.files))
	for i := range e.files {
		if e.fileOps[i] == 0 {
			continue
		}
		out = append(out, FileOps{File: e.files[i].name, Ops: e.fileOps[i]})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Ops != out[j].Ops {
			return out[i].Ops > out[j].Ops
		}
		return out[i].File < out[j].File
	})
	if n > 0 && n < len(out) {
		out = out[:n]
	}
	return out
}
