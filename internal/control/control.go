// Package control is the unified p99 latency control plane: one
// controller that replaces the two independent feedback loops which used
// to fight each other — the cache Manager pinning replicas from mean
// fetch-latency windows while the restripe Migrator invalidated the very
// strips the Manager just pinned.
//
// The controller subscribes per-server latency samples from two sources:
// halo-fetch latencies forwarded by the cache manager's latency sink
// (the tuning signal) and raw data-RPC latencies from the pfs client
// paths (observability). Each sample lands in a deterministic quantile
// sketch (metrics.LatencySketch); decisions key on the p99 — never on the
// mean — following DynamicCache's shard manager and ScaleStore's
// observation that tail-latency thresholds with hysteresis are what make
// adaptive placement converge.
//
// Convergence machinery, in order of defense:
//
//   - Hysteresis band: scale up only above LatencyHigh, scale down only
//     below LatencyLow; windows landing inside the band hold.
//   - Streaks: a threshold crossing must persist for two consecutive
//     windows before acting, so one noisy window moves nothing.
//   - Cool-down: any restripe lifecycle event (plan, strip flip,
//     completion) opens a quiet period during which replica tuning is
//     suppressed and no new migration is admitted. Migration shuffles
//     placements and invalidates cached strips; tuning on its wake would
//     be tuning on noise.
//   - Migration-traffic exclusion: RPC samples tagged as restripe copy
//     traffic are counted but never enter a sketch that feeds decisions.
//
// Everything runs on the DES clock as a chain of daemon timers, exactly
// like the subsystems it coordinates: no wall clock, no goroutines, no
// floats in any decision path, byte-identical across runs.
package control

import (
	"fmt"
	"sort"

	"github.com/hpcio/das/internal/cache"
	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/sim"
)

// Config tunes the controller. The zero value is usable: Normalize fills
// in defaults sized for the experiment cluster.
type Config struct {
	// SampleEvery is the controller's tick period on the DES clock; each
	// tick closes one sampling window per server.
	SampleEvery sim.Time
	// LatencyHigh is the scale-up threshold: a server whose window
	// percentile sits at or above it for upStreak windows gets its hottest
	// cached strips pinned.
	LatencyHigh sim.Time
	// LatencyLow is the scale-down threshold: at or below it for
	// downStreak windows, idle pins are released. LatencyLow must be
	// strictly below LatencyHigh — the gap is the hysteresis band.
	LatencyLow sim.Time
	// Cooldown is the quiet period a restripe lifecycle event opens:
	// while it runs, tuning actions are suppressed (streaks keep
	// accumulating) and no new migration is admitted.
	Cooldown sim.Time
}

// Percentile is the tail quantile every decision keys on: the p99 the
// controller is named for.
const Percentile = 99

// The verdict rules are fixed; the thresholds and window above are what a
// deployment calibrates to its latency scale.
const (
	// minWindowSamples is the quorum: a window (or a file's record) with
	// fewer fetch samples holds rather than judging on a handful.
	minWindowSamples = 4
	// upStreak and downStreak are how many consecutive verdict windows a
	// threshold crossing must persist before the controller acts — two,
	// so one noisy window never moves a pin.
	upStreak, downStreak = 2, 2
)

// Normalize fills zero fields with defaults and validates the rest.
func (c Config) Normalize() (Config, error) {
	if c.SampleEvery == 0 {
		c.SampleEvery = sim.Millisecond
	}
	if c.SampleEvery < 0 {
		return c, fmt.Errorf("control: negative sample period %v", c.SampleEvery)
	}
	if c.LatencyHigh == 0 {
		c.LatencyHigh = 500 * sim.Microsecond
	}
	if c.LatencyLow == 0 {
		c.LatencyLow = 100 * sim.Microsecond
	}
	if c.LatencyLow >= c.LatencyHigh {
		return c, fmt.Errorf("control: LatencyLow %v >= LatencyHigh %v (hysteresis band is empty)", c.LatencyLow, c.LatencyHigh)
	}
	if c.LatencyLow < 0 {
		return c, fmt.Errorf("control: negative LatencyLow %v", c.LatencyLow)
	}
	if c.Cooldown == 0 {
		c.Cooldown = 20 * sim.Millisecond
	}
	if c.Cooldown < 0 {
		return c, fmt.Errorf("control: negative cooldown %v", c.Cooldown)
	}
	return c, nil
}

// Action is one controller decision, logged for reports and the
// determinism tests.
type Action struct {
	At     sim.Time
	Server int
	Kind   string // "promote" or "demote"
	P99    sim.Time
	Count  int // strips the pass actually pinned/unpinned
}

func (a Action) String() string {
	return fmt.Sprintf("[%v] server %d %s x%d (window tail=%v)", a.At, a.Server, a.Kind, a.Count, a.P99)
}

// serverState is one server's view inside the controller.
type serverState struct {
	win *metrics.LatencySketch // fetch latencies this window (tuning)
	cum *metrics.LatencySketch // lifetime fetch latencies
	rpc *metrics.LatencySketch // lifetime non-migration data-RPC latencies

	hotStreak  int
	coldStreak int
	lastP99    sim.Time // last verdict window's percentile
}

// fileState is one file's operation-latency heat: every tenant operation
// touching the file lands one sample here, so a skewed workload makes hot
// files visibly hot instead of smearing their latency across per-server
// aggregates.
type fileState struct {
	sketch *metrics.LatencySketch
	ops    int64
}

// Controller is the unified p99 latency controller. It is engine-
// goroutine state driven by daemon timers, like the subsystems it
// coordinates.
type Controller struct {
	eng     *sim.Engine
	cfg     Config
	servers []*serverState
	files   map[string]*fileState // per-file heat, fed by ObserveFileOp
	mgr     *cache.Manager        // nil until AttachCache: pure observer mode

	// cool-down state: the last restripe lifecycle event seen.
	restripeSeen   bool
	lastRestripeAt sim.Time

	// reg is the platform's counter registry; the handles below are the
	// control.* counters, and Stats reads the cache's pin counts from it.
	reg                *metrics.Registry
	migrationSamples   *metrics.Counter // migration-tagged RPC samples, excluded
	cooldownSuppressed *metrics.Counter // tuning actions deferred by a cool-down
	admitsAllowed      *metrics.Counter
	admitsDenied       *metrics.Counter

	actions []Action
	ticks   int64
	timer   *sim.Timer
	started bool
}

// New builds a controller over nServers storage servers, counting into
// reg.
func New(eng *sim.Engine, nServers int, cfg Config, reg *metrics.Registry) (*Controller, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	if nServers <= 0 {
		return nil, fmt.Errorf("control: server count %d", nServers)
	}
	c := &Controller{
		eng: eng, cfg: cfg, files: make(map[string]*fileState), reg: reg,
		migrationSamples:   reg.Counter("control.migration_samples_excluded"),
		cooldownSuppressed: reg.Counter("control.cooldown_suppressed"),
		admitsAllowed:      reg.Counter("control.admissions_allowed"),
		admitsDenied:       reg.Counter("control.admissions_denied"),
	}
	for i := 0; i < nServers; i++ {
		c.servers = append(c.servers, &serverState{
			win: metrics.NewLatencySketch(),
			cum: metrics.NewLatencySketch(),
			rpc: metrics.NewLatencySketch(),
		})
	}
	return c, nil
}

// Config returns the normalized configuration.
func (c *Controller) Config() Config { return c.cfg }

// AttachCache makes this controller the cache manager's trigger: the
// manager's latency samples flow into the controller's sketches, and pins
// move only when a percentile threshold with hysteresis says so.
func (c *Controller) AttachCache(mgr *cache.Manager) {
	c.mgr = mgr
	mgr.SetLatencySink(c.ObserveFetch)
}

// Start arms the control loop. Ticks are daemon timers, so an idle system
// still terminates.
func (c *Controller) Start() {
	if c.started || c.cfg.SampleEvery <= 0 {
		return
	}
	c.started = true
	c.timer = c.eng.AfterFuncDaemon(c.cfg.SampleEvery, c.tick)
}

// Stop disarms the control loop.
func (c *Controller) Stop() {
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
	c.started = false
}

// ObserveFetch records one halo-fetch latency sample for a server — the
// tuning signal, forwarded by the cache manager's latency sink.
func (c *Controller) ObserveFetch(srv int, lat sim.Time) {
	if srv < 0 || srv >= len(c.servers) {
		return
	}
	s := c.servers[srv]
	s.win.Observe(lat)
	s.cum.Observe(lat)
}

// ObserveRPCLatency implements pfs.LatencyObserver: raw data-RPC samples
// from the client call paths. Migration-tagged samples are counted and
// dropped — background restripe copies must never look like foreground
// load — and the rest feed per-server observability sketches, not the
// tuning windows (the fetch sink is the tuning signal).
func (c *Controller) ObserveRPCLatency(srv int, migration bool, lat sim.Time) {
	if migration {
		c.migrationSamples.Inc()
		return
	}
	if srv >= 0 && srv < len(c.servers) {
		c.servers[srv].rpc.Observe(lat)
	}
}

// ObserveFileOp records one completed operation's latency against the
// file it touched — the per-file heat signal. The multi-tenant engine
// feeds it once per tenant operation; single-file experiments never call
// it and keep the per-server admission semantics unchanged.
func (c *Controller) ObserveFileOp(file string, lat sim.Time) {
	st, ok := c.files[file]
	if !ok {
		st = &fileState{sketch: metrics.NewLatencySketch()}
		c.files[file] = st
	}
	st.sketch.Observe(lat)
	st.ops++
}

// FileStat is one file's heat snapshot for reports.
type FileStat struct {
	File  string   `json:"file"`
	Ops   int64    `json:"ops"`
	P50   sim.Time `json:"p50"`
	P99   sim.Time `json:"p99"`
	MaxNS sim.Time `json:"max"`
}

// FileStats returns per-file heat snapshots sorted by file name — a
// deterministic order regardless of map iteration.
func (c *Controller) FileStats() []FileStat {
	names := make([]string, 0, len(c.files))
	for name := range c.files {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]FileStat, 0, len(names))
	for _, name := range names {
		st := c.files[name]
		out = append(out, FileStat{
			File:  name,
			Ops:   st.ops,
			P50:   st.sketch.Quantile(50),
			P99:   st.sketch.Quantile(Percentile),
			MaxNS: st.sketch.Max(),
		})
	}
	return out
}

// noteRestripe restarts the cool-down clock.
func (c *Controller) noteRestripe() {
	c.restripeSeen = true
	c.lastRestripeAt = c.eng.Now()
}

// MigrationPlanned implements restripe.Watcher.
func (c *Controller) MigrationPlanned(string) { c.noteRestripe() }

// StripFlipped implements restripe.Watcher.
func (c *Controller) StripFlipped(string, int64) { c.noteRestripe() }

// MigrationCompleted implements restripe.Watcher.
func (c *Controller) MigrationCompleted(string) { c.noteRestripe() }

// InCooldown reports whether a restripe lifecycle event's quiet period is
// still running.
func (c *Controller) InCooldown() bool {
	return c.restripeSeen && c.eng.Now() < c.lastRestripeAt+c.cfg.Cooldown
}

// AllowRestripe is the migrator's admission gate: a new migration starts
// only when no cool-down is running and the latency evidence says the
// named file is actually worth moving.
//
// With per-file heat available (ObserveFileOp has been fed — the
// multi-tenant path), the verdict is per file: the file itself must have
// a sample quorum with its operation tail at or above the scale-up
// threshold. Under real skew this is what stops one hot file's congestion
// from admitting a migration for every lukewarm file on the same servers
// — the failure mode of the per-server aggregate.
//
// Without per-file observations (the single-file experiments), the gate
// falls back to the original per-server rule: some server's cumulative
// fetch tail at or above the threshold. A cold or already-converged
// cluster keeps its layout; a deferred file is retried on later
// observations.
func (c *Controller) AllowRestripe(file string) bool {
	if c.InCooldown() {
		c.admitsDenied.Inc()
		return false
	}
	if len(c.files) > 0 {
		st, ok := c.files[file]
		if ok && st.sketch.Count() >= minWindowSamples && st.sketch.Quantile(Percentile) >= c.cfg.LatencyHigh {
			c.admitsAllowed.Inc()
			return true
		}
		c.admitsDenied.Inc()
		return false
	}
	for _, s := range c.servers {
		if s.cum.Count() >= minWindowSamples && s.cum.Quantile(Percentile) >= c.cfg.LatencyHigh {
			c.admitsAllowed.Inc()
			return true
		}
	}
	c.admitsDenied.Inc()
	return false
}

// tick closes one sampling window per server: verdict from the window
// percentile against the hysteresis band, streak bookkeeping, then the
// promote/demote passes — unless a cool-down holds them, in which case
// streaks persist so the deferred action fires right after the quiet
// period. Servers are visited in index order; all state is engine-
// goroutine state — fully deterministic.
func (c *Controller) tick() {
	c.ticks++
	cool := c.InCooldown()
	for i, s := range c.servers {
		n := s.win.Count()
		switch {
		case n >= minWindowSamples:
			p := s.win.Quantile(Percentile)
			s.lastP99 = p
			switch {
			case p >= c.cfg.LatencyHigh:
				s.hotStreak++
				s.coldStreak = 0
			case p <= c.cfg.LatencyLow:
				s.coldStreak++
				s.hotStreak = 0
			default: // inside the band: hold
				s.hotStreak, s.coldStreak = 0, 0
			}
		case n == 0 && c.mgr != nil && c.mgr.WindowHits(i) > 0:
			// No fetches but cache hits: the cache absorbs the halo traffic
			// at zero fetch cost — the strongest possible scale-down signal.
			s.lastP99 = 0
			s.coldStreak++
			s.hotStreak = 0
		default:
			// Too few samples for a verdict: hold streaks as they are.
		}
		if c.mgr == nil {
			continue
		}
		if s.hotStreak >= upStreak {
			if cool {
				c.cooldownSuppressed.Inc()
			} else {
				s.hotStreak = 0
				if k := c.mgr.PromoteHotServer(i); k > 0 {
					c.actions = append(c.actions, Action{At: c.eng.Now(), Server: i, Kind: "promote", P99: s.lastP99, Count: k})
				}
			}
		}
		if s.coldStreak >= downStreak {
			if cool {
				c.cooldownSuppressed.Inc()
			} else {
				s.coldStreak = 0
				if k := c.mgr.DemoteIdleServer(i); k > 0 {
					c.actions = append(c.actions, Action{At: c.eng.Now(), Server: i, Kind: "demote", P99: s.lastP99, Count: k})
				}
			}
		}
	}
	for _, s := range c.servers {
		s.win.Reset()
	}
	if c.mgr != nil {
		c.mgr.ResetWindows()
	}
	c.timer = c.eng.AfterFuncDaemon(c.cfg.SampleEvery, c.tick)
}

// MergedFetchSketch returns a copy of the cluster-wide cumulative fetch
// sketch: every server's lifetime halo-fetch samples merged. Callers may
// snapshot it and Delta later snapshots against it for per-interval
// quantiles.
func (c *Controller) MergedFetchSketch() *metrics.LatencySketch {
	out := metrics.NewLatencySketch()
	for _, s := range c.servers {
		out.Merge(s.cum)
	}
	return out
}

// ClusterP99 returns the p99 of the merged cumulative fetch sketch — the
// observed-tail signal the prediction core tiers the offload decision on.
func (c *Controller) ClusterP99() sim.Time {
	return c.MergedFetchSketch().Quantile(Percentile)
}

// ServerStat is one server's controller-eye view for reports: its sketches,
// and the pins and unpins at its label of the cache's counters (pins move
// only under the controller).
type ServerStat struct {
	Server     int      `json:"server"`
	FetchCount int64    `json:"fetch_samples"`
	FetchP50   sim.Time `json:"fetch_p50"`
	FetchP99   sim.Time `json:"fetch_p99"`
	RPCCount   int64    `json:"rpc_samples"`
	RPCP99     sim.Time `json:"rpc_p99"`
	Promotions int64    `json:"promotions"`
	Demotions  int64    `json:"demotions"`
}

func (s ServerStat) String() string {
	return fmt.Sprintf("server %d: %d fetch samples (p50=%v p99=%v), %d rpc samples (p99=%v), promo=%d demo=%d",
		s.Server, s.FetchCount, s.FetchP50, s.FetchP99, s.RPCCount, s.RPCP99, s.Promotions, s.Demotions)
}

// Stats returns per-server snapshots in server order.
func (c *Controller) Stats() []ServerStat {
	out := make([]ServerStat, 0, len(c.servers))
	for i, s := range c.servers {
		out = append(out, ServerStat{
			Server:     i,
			FetchCount: s.cum.Count(),
			FetchP50:   s.cum.Quantile(50),
			FetchP99:   s.cum.Quantile(Percentile),
			RPCCount:   s.rpc.Count(),
			RPCP99:     s.rpc.Quantile(Percentile),
			Promotions: c.reg.GetServer("cache.promotions", i),
			Demotions:  c.reg.GetServer("cache.demotions", i),
		})
	}
	return out
}

// Actions returns the controller's decision log in order.
func (c *Controller) Actions() []Action { return c.actions }

// Ticks returns how many control ticks have run.
func (c *Controller) Ticks() int64 { return c.ticks }

// Admissions returns the restripe admission gate's allowed/denied counts.
// Only the bench/ module calls it, until ROADMAP item 3 moves bench/.
func (c *Controller) Admissions() (allowed, denied int64) {
	return c.admitsAllowed.Load(), c.admitsDenied.Load()
}
