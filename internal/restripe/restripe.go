// Package restripe is the one path that moves a file to a new layout. It
// watches per-file offload decisions and observed dependent-halo traffic,
// asks the prediction core for the improved grouped-replicated
// distribution within a capacity budget, and migrates live files toward it
// in the background on the DES clock — without ever making a read see
// stale or missing data. The DAS reconfigure step drains a migration of
// its own through the same copier (Migrator.Migrate).
//
// The migration protocol per strip is copy-then-flip-then-retire: the
// strip's bytes are pushed to every target holder that lacks a copy, the
// shared move set bit flips (from then on the file's layout.Migrating
// dual layout resolves the strip under the target placement), and copies
// the target layout no longer places are dropped. Readers racing a flip
// either find the old copy still present or fail over to the new holders
// through the pfs replica-failover path; the strip-invalidation hook fires
// for every copy created or retired, so caches never serve stale bytes.
//
// The persisted migration cursor is the per-move done set plus the move
// set itself, held in the (crash-free) metadata service alongside the
// file's dual layout: a storage-server crash mid-migration fails the
// in-flight moves fast, parks the migration, and a later tick resumes it
// from exactly the strips that had not committed.
package restripe

import (
	"fmt"
	"slices"

	"github.com/hpcio/das/internal/cluster"
	"github.com/hpcio/das/internal/features"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/pfs"
	"github.com/hpcio/das/internal/predict"
	"github.com/hpcio/das/internal/sim"
)

// Config tunes the migrator. The zero value is usable: Normalize fills in
// defaults sized for the experiment cluster. The target layout's capacity
// overhead is the planner's predict.DefaultMaxOverhead.
type Config struct {
	// MinObservedBytes is the dependent-traffic threshold: a file becomes
	// a migration candidate once its observed (or predicted, for rejected
	// offloads) dependent-halo bytes reach it.
	MinObservedBytes int64
	// MovesPerTick bounds how many strip moves one tick may issue, keeping
	// the migration incremental.
	MovesPerTick int
	// MaxInFlightBytes bounds the migration bytes simultaneously in flight
	// against any one server (as copy source or target), so foreground I/O
	// is never starved by the copier. Moves that would exceed it stall to
	// the next tick.
	MaxInFlightBytes int64
	// RetryDelay is how long a migration parks after a move failed against
	// a crashed server before the cursor is retried.
	RetryDelay sim.Time
}

// sampleEvery is the background tick period on the DES clock.
const sampleEvery = 500 * sim.Microsecond

// Normalize fills zero fields with defaults and validates the rest.
func (c Config) Normalize() (Config, error) {
	if c.MinObservedBytes == 0 {
		c.MinObservedBytes = 1
	}
	if c.MinObservedBytes < 0 {
		return c, fmt.Errorf("restripe: negative trigger threshold %d", c.MinObservedBytes)
	}
	if c.MovesPerTick == 0 {
		c.MovesPerTick = 8
	}
	if c.MovesPerTick < 0 {
		return c, fmt.Errorf("restripe: negative moves per tick %d", c.MovesPerTick)
	}
	if c.MaxInFlightBytes == 0 {
		c.MaxInFlightBytes = 256 * 1024
	}
	if c.MaxInFlightBytes < 0 {
		return c, fmt.Errorf("restripe: negative in-flight budget %d", c.MaxInFlightBytes)
	}
	if c.RetryDelay == 0 {
		c.RetryDelay = 20 * sim.Millisecond
	}
	if c.RetryDelay < 0 {
		return c, fmt.Errorf("restripe: negative retry delay %v", c.RetryDelay)
	}
	return c, nil
}

// State names a migration's position in its lifecycle.
type State int

const (
	// Running means the copier is working through the plan.
	Running State = iota
	// Waiting means a move failed against a crashed server and the
	// migration is parked until the retry delay elapses.
	Waiting
	// Done means the file converged and carries the target layout.
	Done
)

// String names the state for reports.
func (s State) String() string {
	switch s {
	case Running:
		return "running"
	case Waiting:
		return "waiting"
	case Done:
		return "done"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Migration is one file's live layout transition.
type Migration struct {
	file    string
	old     layout.Layout
	target  layout.Layout
	dual    *layout.Migrating
	moves   *layout.MoveSet
	plan    []*move
	byStrip map[int64]*move
	// cursor is the first plan index whose move has not committed — with
	// the per-move done flags, the persisted resume point.
	cursor      int
	state       State
	nextRetryAt sim.Time
	startedAt   sim.Time
	finishedAt  sim.Time
	cause       error // why the migration last parked
	// draining marks a migration a request batches itself (Migrate): the
	// tick leaves it alone, and its moves skip the throttles.
	draining bool
}

// Status is a migration snapshot for progress reports.
type Status struct {
	File       string
	From, To   string
	State      string
	Moved      int64
	Total      int64
	StartedAt  sim.Time
	FinishedAt sim.Time // zero while in progress
}

func (st Status) String() string {
	if st.State == Done.String() {
		return fmt.Sprintf("%s: %s -> %s, %d/%d strips, done at %v",
			st.File, st.From, st.To, st.Moved, st.Total, st.FinishedAt)
	}
	return fmt.Sprintf("%s: %s -> %s, %d/%d strips, %s",
		st.File, st.From, st.To, st.Moved, st.Total, st.State)
}

// Event is one log entry of the migration lifecycle, for reports and the
// determinism tests.
type Event struct {
	At   sim.Time
	File string
	Kind string // "plan", "stall", "park", "resume", "complete"
}

func (e Event) String() string {
	return fmt.Sprintf("[%v] %s %s", e.At, e.Kind, e.File)
}

// Migrator owns every live migration and runs the throttled copier as a
// chain of daemon timers on the DES clock, like the cache manager's tuning
// loop: each tick spawns at most one batch process that issues a bounded
// set of moves, so an idle migrator never keeps Engine.Run alive, while an
// active one makes progress during whatever workload is running.
type Migrator struct {
	eng *sim.Engine
	clu *cluster.Cluster
	fs  *pfs.FileSystem
	cfg Config
	n   counters

	observed  map[string]int64
	active    map[string]*Migration
	order     []string
	completed []*Migration
	inflight  []int64 // per-server migration bytes currently in flight
	events    []Event

	fromNode int
	timer    *sim.Timer
	started  bool
	batching bool

	// watcher and admission are the p99 controller's hooks: lifecycle
	// notifications out, admission verdicts in.
	watcher   Watcher
	admission func(file string) bool
}

// counters are the migrator's handles on the registry's restripe.*
// counters.
type counters struct {
	planned, completed                      *metrics.Counter
	stripsMoved, bytesCopied, zeroCopyFlips *metrics.Counter
	throttleStalls, resumes, recopies       *metrics.Counter
}

// NewMigrator builds the subsystem over a deployed file system, counting
// into the cluster's registry.
func NewMigrator(clu *cluster.Cluster, fs *pfs.FileSystem, cfg Config) (*Migrator, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	count := func(name string) *metrics.Counter { return clu.Counters.Counter("restripe." + name) }
	return &Migrator{
		eng: clu.Eng,
		clu: clu,
		fs:  fs,
		cfg: cfg,
		n: counters{
			planned: count("planned"), completed: count("completed"),
			stripsMoved: count("strips_moved"), bytesCopied: count("bytes_copied"), zeroCopyFlips: count("zero_copy_flips"),
			throttleStalls: count("throttle_stalls"), resumes: count("resumes"), recopies: count("recopies"),
		},
		observed: make(map[string]int64),
		active:   make(map[string]*Migration),
		inflight: make([]int64, fs.Servers()),
		fromNode: clu.ComputeID(0),
	}, nil
}

// Config returns the normalized configuration.
func (m *Migrator) Config() Config { return m.cfg }

// Watcher observes migration lifecycle transitions. The unified p99
// controller implements it to start its post-restripe cool-down: every
// plan, strip flip, and completion restarts the quiet period during which
// replica tuning holds and no new migration is admitted.
type Watcher interface {
	MigrationPlanned(file string)
	StripFlipped(file string, strip int64)
	MigrationCompleted(file string)
}

// SetWatcher wires a migration lifecycle listener (nil disables).
func (m *Migrator) SetWatcher(w Watcher) { m.watcher = w }

// SetAdmission installs a gate consulted before a new migration is
// admitted (nil removes it). Observe still accumulates evidence while the
// gate refuses; the file is re-considered on later observations, so a
// migration deferred by a cool-down happens once the gate opens.
func (m *Migrator) SetAdmission(gate func(file string) bool) { m.admission = gate }

// Start arms the background tick. Ticks are daemon timers, so an idle
// system still terminates.
func (m *Migrator) Start() {
	if m.started {
		return
	}
	m.started = true
	m.timer = m.eng.AfterFuncDaemon(sampleEvery, m.tick)
}

// Stop disarms the background tick. In-flight batches finish.
func (m *Migrator) Stop() {
	if m.timer != nil {
		m.timer.Stop()
		m.timer = nil
	}
	m.started = false
}

// Observe feeds one executed operation's dependent-traffic evidence for a
// file: the bytes its halo fetches actually moved between servers, or —
// for an offload the predictor rejected — the bytes the analysis predicts
// an offload would move. Once the accumulated evidence crosses the
// configured threshold and the prediction core recommends a different
// layout within the overhead budget, the file is admitted for migration.
func (m *Migrator) Observe(file string, pat features.Pattern, p predict.Params, dependentBytes int64) {
	if dependentBytes > 0 {
		m.observed[file] += dependentBytes
	}
	if _, migrating := m.active[file]; migrating {
		return
	}
	if m.observed[file] < m.cfg.MinObservedBytes {
		return
	}
	meta, ok := m.fs.Meta(file)
	if !ok {
		return
	}
	if _, dual := meta.Layout.(*layout.Migrating); dual {
		return
	}
	target, ok, err := predict.RecommendLayout(pat, p, m.fs.Servers(), predict.DefaultMaxOverhead)
	if err != nil || !ok {
		return
	}
	// The file keeps its first server: a regrouped file's group 0 lands
	// where its strip 0 already is, not on server 0 for every file, and a
	// file already at its rotated target compares equal by name.
	target.Start = meta.Layout.Primary(0)
	if target.Name() == meta.Layout.Name() {
		return
	}
	if m.admission != nil && !m.admission(meta.Name) {
		return // deferred: evidence is kept, a later Observe retries
	}
	// The target spans the file system's servers, so SetLayout accepts it.
	_, _ = m.admit(meta, target)
}

// admit plans a migration and installs the dual layout: from this moment
// every read of the file follows the move set.
func (m *Migrator) admit(meta *pfs.FileMeta, target layout.Layout) (*Migration, error) {
	moves := layout.NewMoveSet(meta.Strips())
	dual := layout.NewMigrating(meta.Layout, target, moves)
	mig := &Migration{
		file:      meta.Name,
		old:       meta.Layout,
		target:    target,
		dual:      dual,
		moves:     moves,
		plan:      planMoves(meta, meta.Layout, target),
		byStrip:   make(map[int64]*move, meta.Strips()),
		state:     Running,
		startedAt: m.eng.Now(),
	}
	for _, mv := range mig.plan {
		mig.byStrip[mv.strip] = mv
	}
	if err := m.fs.SetLayout(meta.Name, dual); err != nil {
		return nil, err // layout span mismatch: the file is left alone
	}
	m.active[meta.Name] = mig
	m.order = append(m.order, meta.Name)
	m.n.planned.Inc()
	m.logEvent(meta.Name, "plan")
	if m.watcher != nil {
		m.watcher.MigrationPlanned(meta.Name)
	}
	return mig, nil
}

// Migrate moves file to target on the calling process — the DAS
// reconfigure step (Fig. 3) — admitting the migration or taking over the
// file's migration to the same target, and batches it until it completes.
// The tick skips a migration a request drains, and the request's moves
// skip MovesPerTick and MaxInFlightBytes, which keep background copies
// from starving foreground I/O: the waiting request is the foreground.
// Its moves still charge the in-flight ledger. A parked migration retries
// every RetryDelay; after pfs.DownRetries retries that commit nothing,
// Migrate returns the park's cause (pfs.ErrServerDown for a dead server)
// and leaves the migration parked behind its readable dual layout, for a
// later Migrate to resume from the cursor.
func (m *Migrator) Migrate(p *sim.Proc, file string, target layout.Layout) error {
	mig, ok := m.active[file]
	if !ok {
		meta, found := m.fs.Meta(file)
		if !found {
			return fmt.Errorf("restripe: unknown file %q", file)
		}
		if _, dual := meta.Layout.(*layout.Migrating); dual {
			return fmt.Errorf("restripe: %s is migrating under another migrator", file)
		}
		if meta.Layout.Name() == target.Name() {
			return nil
		}
		var err error
		if mig, err = m.admit(meta, target); err != nil {
			return err
		}
	}
	if mig.target.Name() != target.Name() {
		return fmt.Errorf("restripe: %s is migrating to %s, not %s", file, mig.target.Name(), target.Name())
	}
	mig.draining = true
	defer func() { mig.draining = false }()
	for retries := 0; mig.state != Done; {
		if mig.state == Waiting {
			if retries == pfs.DownRetries {
				return fmt.Errorf("restripe: migrate %s to %s: %w", file, target.Name(), mig.cause)
			}
			retries++
			p.Sleep(mig.nextRetryAt - p.Now())
			mig.state = Running
		}
		committed := mig.moves.Count()
		if m.batchFile(p, mig, len(mig.plan)) == 0 && mig.state == Running {
			p.Sleep(sampleEvery) // a tick's batch from before the drain holds every move left
		}
		if mig.moves.Count() > committed {
			retries = 0
		}
	}
	return nil
}

// tick spawns one bounded copier batch when migrations are pending, then
// re-arms itself.
func (m *Migrator) tick() {
	if len(m.order) > 0 && !m.batching {
		m.batching = true
		m.eng.Spawn("restripe-batch", m.runBatch)
	}
	m.timer = m.eng.AfterFuncDaemon(sampleEvery, m.tick)
}

// runBatch issues up to MovesPerTick moves across the active migrations in
// admission order.
func (m *Migrator) runBatch(p *sim.Proc) {
	defer func() { m.batching = false }()
	budget := m.cfg.MovesPerTick
	for _, file := range append([]string(nil), m.order...) {
		if budget <= 0 {
			return
		}
		mig, ok := m.active[file]
		if !ok || mig.draining {
			continue
		}
		if mig.state == Waiting {
			if p.Now() < mig.nextRetryAt {
				continue
			}
			mig.state = Running
		}
		budget -= m.batchFile(p, mig, budget)
	}
}

// moveOutcome carries one move's result back to the batch.
type moveOutcome struct {
	mv      *move
	src     int
	targets []int
	bytes   int64
	err     error
}

// batchFile issues up to limit moves of one migration, waits for them, and
// advances the cursor. It returns how many moves it issued.
func (m *Migrator) batchFile(p *sim.Proc, mig *Migration, limit int) int {
	issued := 0
	stalled := false
	var sigs []*sim.Signal[moveOutcome]
	for i := mig.cursor; i < len(mig.plan) && issued < limit; i++ {
		mv := mig.plan[i]
		if mv.done || mv.inflight {
			continue
		}
		src, targets, bytes, err := m.resolve(mig, mv)
		if err != nil {
			// Fail fast without an RPC: the write path would bridge a
			// planned crash by waiting out the down-window, but a migration
			// must park and resume from its cursor instead of stalling a
			// foreground-adjacent process on a dead server.
			m.parkMove(mig, mv, err)
			break
		}
		if len(targets) == 0 {
			// Every target holder already stores a fresh copy (a halo
			// replica the old layout happened to place, kept fresh by the
			// write path's replica forwarding): the move is a pure metadata
			// flip. These commit even after the byte budget stalled a copy —
			// they cost nothing against it.
			m.commit(mig, mv, 0)
			issued++
			continue
		}
		if stalled {
			continue
		}
		if !m.reserve(src, targets, bytes, !mig.draining) {
			// Out of in-flight budget for copies this batch; keep scanning
			// for zero-byte flips, which need no reservation.
			m.n.throttleStalls.Inc()
			m.logEvent(mig.file, "stall")
			stalled = true
			continue
		}
		mv.inflight = true
		mv.expect = len(targets)
		issued++
		sig := sim.NewSignal[moveOutcome](m.eng, "restripe-move")
		sigs = append(sigs, sig)
		p.Spawn("restripe-move", func(c *sim.Proc) {
			err := m.fs.MigrateStrip(c, m.fromNode, src, mig.file, mv.strip, targets)
			sig.Fire(moveOutcome{mv: mv, src: src, targets: targets, bytes: bytes, err: err})
		})
	}
	for _, out := range sim.WaitAll(p, sigs) {
		m.release(out.src, out.targets, out.bytes)
		out.mv.inflight = false
		out.mv.expect = 0
		if out.err != nil || out.mv.dirty {
			// The attempt did not commit, but some of its targets may
			// already store its bytes — and any write landing before the
			// retry refreshes only the old placement's holders, so those
			// copies can silently go stale. Record them so resolve re-ships
			// them on retry instead of trusting Holds and committing the
			// move as a pure metadata flip over pre-write bytes.
			out.mv.markReship(out.targets)
			if out.mv.dirty {
				// A foreign write landed while the copy was in flight: the
				// shipped bytes may predate it. Discard the attempt; the
				// cursor re-copies the strip next batch.
				out.mv.dirty = false
				m.n.recopies.Inc()
			}
			if out.err != nil {
				m.parkMove(mig, out.mv, out.err)
			}
			continue
		}
		m.commit(mig, out.mv, out.bytes)
	}
	m.advance(mig)
	return issued
}

// resolve computes a move's current source holder and the target holders
// still lacking a trustworthy copy, against live server holdings — so a
// re-executed move never re-ships bytes a committed placement already
// covers, while targets a discarded attempt touched (mv.reship) are
// always re-shipped: their copies may predate a write that only reached
// the old placement. err, wrapping pfs.ErrServerDown or
// pfs.ErrNoLiveCopy, says why the move cannot run now: the source or a
// target server is down, or no current holder stores the strip.
func (m *Migrator) resolve(mig *Migration, mv *move) (src int, targets []int, bytes int64, err error) {
	src = -1
	for holders, i := mig.dual.Holders(mv.strip), 0; i < holders.Len(); i++ {
		if h := holders.At(i); m.fs.Server(h).Holds(mig.file, mv.strip) {
			src = h
			break
		}
	}
	meta, ok := m.fs.Meta(mig.file)
	if src < 0 || !ok {
		// No current holder stores the strip (it vanished with a crashed
		// server before replication): park and hope a restart brings it
		// back.
		return 0, nil, 0, fmt.Errorf("restripe: %s strip %d: %w", mig.file, mv.strip, pfs.ErrNoLiveCopy)
	}
	lo, hi := meta.StripBounds(mv.strip)
	for holders, i := mig.target.Holders(mv.strip), 0; i < holders.Len(); i++ {
		if h := holders.At(i); mv.reship[h] || !m.fs.Server(h).Holds(mig.file, mv.strip) {
			targets = append(targets, h)
		}
	}
	bytes = int64(len(targets)) * (hi - lo)
	if m.clu.ServerDown(src) || slices.ContainsFunc(targets, m.clu.ServerDown) {
		return src, targets, bytes, fmt.Errorf("restripe: %s strip %d from server %d to %v: %w", mig.file, mv.strip, src, targets, pfs.ErrServerDown)
	}
	return src, targets, bytes, nil
}

// parkMove marks a move failed and parks its migration for the retry
// delay, recording why. The committed prefix is untouched: when the
// migration resumes, the cursor re-executes exactly the moves that had
// not committed.
func (m *Migrator) parkMove(mig *Migration, mv *move, cause error) {
	mv.failed = true
	mig.cause = cause
	if mig.state != Waiting {
		mig.state = Waiting
		m.logEvent(mig.file, "park")
	}
	mig.nextRetryAt = m.eng.Now() + m.cfg.RetryDelay
}

// commit flips the strip to the target placement and retires copies the
// target layout no longer places. The flip happens before the retire: a
// reader between the two sees both placements populated; a reader racing
// the retire fails over from the dropped copy to the target holders.
func (m *Migrator) commit(mig *Migration, mv *move, bytes int64) {
	mig.moves.Set(mv.strip)
	mv.done = true
	mv.inflight = false
	mv.expect = 0
	mv.reship = nil
	if mv.failed {
		mv.failed = false
		m.n.resumes.Inc()
		m.logEvent(mig.file, "resume")
	}
	m.n.stripsMoved.Inc()
	m.n.bytesCopied.Add(bytes)
	if bytes == 0 {
		m.n.zeroCopyFlips.Inc()
	}
	if m.watcher != nil {
		m.watcher.StripFlipped(mig.file, mv.strip)
	}
	for srv := 0; srv < m.fs.Servers(); srv++ {
		if m.fs.Server(srv).Holds(mig.file, mv.strip) && !mig.target.Holders(mv.strip).Has(srv) {
			m.fs.Server(srv).Drop(mig.file, mv.strip)
		}
	}
}

// advance pushes the cursor over the committed prefix and completes the
// migration when it reaches the end of the plan.
func (m *Migrator) advance(mig *Migration) {
	for mig.cursor < len(mig.plan) && mig.plan[mig.cursor].done {
		mig.cursor++
	}
	if mig.cursor < len(mig.plan) {
		return
	}
	if err := m.fs.SetLayout(mig.file, mig.target); err == nil {
		m.end(mig)
		mig.finishedAt = m.eng.Now()
		m.completed = append(m.completed, mig)
		m.observed[mig.file] = 0
		m.n.completed.Inc()
		m.logEvent(mig.file, "complete")
		if m.watcher != nil {
			m.watcher.MigrationCompleted(mig.file)
		}
	}
}

// reserve charges a move's bytes against the source and target servers'
// in-flight budgets. Throttled (a tick's move), a server that already
// carries migration bytes refuses a charge that would push it over the
// cap, but an idle server admits its share unconditionally: a single move
// larger than the budget must still go through once its servers drain, or
// the migration would stall at every tick forever without converging.
func (m *Migrator) reserve(src int, targets []int, bytes int64, throttled bool) bool {
	per := bytes / int64(len(targets))
	if throttled && m.inflight[src] > 0 && m.inflight[src]+bytes > m.cfg.MaxInFlightBytes {
		return false
	}
	for _, t := range targets {
		if throttled && m.inflight[t] > 0 && m.inflight[t]+per > m.cfg.MaxInFlightBytes {
			return false
		}
	}
	m.inflight[src] += bytes
	for _, t := range targets {
		m.inflight[t] += per
	}
	return true
}

// release returns a finished move's bytes to the budgets.
func (m *Migrator) release(src int, targets []int, bytes int64) {
	if len(targets) == 0 {
		return
	}
	m.inflight[src] -= bytes
	per := bytes / int64(len(targets))
	for _, t := range targets {
		m.inflight[t] -= per
	}
}

// CheckReleased reports the first server, in index order, still charged
// with in-flight migration bytes: a move whose reservation was never
// returned, which would throttle every later copy through that server. At
// quiescence no batch is running, so every server's charge must be zero;
// core.System calls it at the end of every run once the migrator is
// deployed.
func (m *Migrator) CheckReleased() error {
	for srv, b := range m.inflight {
		if b != 0 {
			return fmt.Errorf("restripe: server %d holds %d in-flight migration bytes at quiescence", srv, b)
		}
	}
	return nil
}

// InvalidateStrip receives every strip mutation from the pfs write path.
// The migrator consumes the notifications its own target copies fire
// (expect tokens) and treats any excess as a foreign write racing the
// move, which dirties the copy so it is repeated with fresh bytes.
func (m *Migrator) InvalidateStrip(file string, strip int64) {
	mig, ok := m.active[file]
	if !ok {
		return
	}
	mv, ok := mig.byStrip[strip]
	if !ok || mv.done || !mv.inflight {
		return
	}
	if mv.expect > 0 {
		mv.expect--
		return
	}
	mv.dirty = true
}

// InvalidateFile cancels any migration of a deleted file.
func (m *Migrator) InvalidateFile(file string) {
	if mig, ok := m.active[file]; ok {
		m.end(mig)
		delete(m.observed, file)
	}
}

// end marks a migration done and drops it from the active set.
func (m *Migrator) end(mig *Migration) {
	mig.state = Done
	delete(m.active, mig.file)
	m.order = slices.DeleteFunc(m.order, func(f string) bool { return f == mig.file })
}

// ActiveCount returns how many migrations are in progress.
func (m *Migrator) ActiveCount() int { return len(m.active) }

// Drain sleeps the calling process until every active migration completes
// or the timeout elapses, returning whether the migrator converged. The
// sleeping process keeps the engine running, so the daemon ticks keep
// firing batches.
func (m *Migrator) Drain(p *sim.Proc, timeout sim.Time) bool {
	deadline := p.Now() + timeout
	for len(m.active) > 0 {
		if p.Now() >= deadline {
			return false
		}
		p.Sleep(sampleEvery)
	}
	return true
}

// Status returns every migration's progress snapshot: active ones in
// admission order, then completed ones in completion order.
func (m *Migrator) Status() []Status {
	var out []Status
	for _, file := range m.order {
		if mig, ok := m.active[file]; ok {
			out = append(out, m.status(mig))
		}
	}
	for _, mig := range m.completed {
		out = append(out, m.status(mig))
	}
	return out
}

func (m *Migrator) status(mig *Migration) Status {
	moved, total := mig.moves.Count(), mig.moves.Len()
	return Status{
		File:       mig.file,
		From:       mig.old.Name(),
		To:         mig.target.Name(),
		State:      mig.state.String(),
		Moved:      moved,
		Total:      total,
		StartedAt:  mig.startedAt,
		FinishedAt: mig.finishedAt,
	}
}

// Events returns the migration lifecycle log in order.
func (m *Migrator) Events() []Event { return m.events }

func (m *Migrator) logEvent(file, kind string) {
	m.events = append(m.events, Event{At: m.eng.Now(), File: file, Kind: kind})
}
