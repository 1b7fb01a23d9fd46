// End-to-end tests of the online restriping subsystem over the deployed
// platform. They live in an external test package because the core engine
// imports restripe; importing core back from package restripe would cycle.
package restripe_test

import (
	"testing"

	"github.com/hpcio/das/internal/cache"
	"github.com/hpcio/das/internal/cluster"
	"github.com/hpcio/das/internal/core"
	"github.com/hpcio/das/internal/fault"
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/restripe"
	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/workload"
)

// Test geometry: width 64, one row per 512-byte strip, 32 rows.
const (
	testW     = 64
	testH     = 32
	testStrip = int64(testW * grid.ElemSize)
)

const drainTimeout = 30 * sim.Second

// rig builds a 4x4 platform with the test terrain ingested round-robin —
// the layout the migrator should move away from once it sees dependent
// traffic.
func rig(t *testing.T, g *grid.Grid) *core.System {
	t.Helper()
	cfg := cluster.Default()
	cfg.ComputeNodes, cfg.StorageNodes = 4, 4
	s, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.IngestGrid("in", g, layout.NewRoundRobin(4), testStrip); err != nil {
		t.Fatal(err)
	}
	return s
}

func drain(t *testing.T, s *core.System) {
	t.Helper()
	ok, _, err := s.DrainRestripe(drainTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("migration did not converge within %v: %v", drainTimeout, s.Restripe.Status())
	}
}

func checkGrid(t *testing.T, s *core.System, name string, want *grid.Grid) {
	t.Helper()
	got, err := s.FetchGrid(name)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Errorf("%s diverged from the reference (max diff %g)", name, got.MaxAbsDiff(want))
	}
}

// TestMigrationConvergesAndKillsHaloTraffic is the tentpole e2e: a NAS
// round over round-robin pays dependent-halo fetches, the migrator notices
// and moves the file to the grouped-replicated layout in the background,
// and the post-migration round finds every dependent strip local — zero
// remote halo bytes — with all outputs and the input itself byte-identical
// to the sequential reference.
func TestMigrationConvergesAndKillsHaloTraffic(t *testing.T) {
	g := workload.Terrain(testW, testH, 5)
	k, _ := kernels.Default().Lookup("flow-routing")
	want := kernels.Apply(k, g)

	s := rig(t, g)
	defer s.Close()
	if err := s.EnableRestripe(restripe.Config{}); err != nil {
		t.Fatal(err)
	}

	rep1, err := s.Execute(core.Request{Op: "flow-routing", Input: "in", Output: "o1", Scheme: core.NAS})
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Stats.RemoteBytes == 0 {
		t.Fatal("round-robin NAS round moved no dependent bytes; nothing to trigger on")
	}
	if s.Restripe.ActiveCount() != 1 {
		t.Fatalf("after the first observed round, %d active migrations, want 1", s.Restripe.ActiveCount())
	}
	drain(t, s)

	m, _ := s.FS.Meta("in")
	if _, still := m.Layout.(*layout.Migrating); still {
		t.Fatal("file still carries the dual layout after convergence")
	}
	if _, ok := m.Layout.(layout.GroupedReplicated); !ok {
		t.Fatalf("converged layout is %s, want grouped-replicated", m.Layout.Name())
	}
	rs := s.Clu.Counters
	if rs.Get("restripe.planned") != 1 || rs.Get("restripe.completed") != 1 {
		t.Errorf("planned=%d completed=%d, want 1/1", rs.Get("restripe.planned"), rs.Get("restripe.completed"))
	}
	if rs.Get("restripe.strips_moved") != m.Strips() {
		t.Errorf("moved %d strips of %d", rs.Get("restripe.strips_moved"), m.Strips())
	}

	rep2, err := s.Execute(core.Request{Op: "flow-routing", Input: "in", Output: "o2", Scheme: core.NAS})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Stats.RemoteBytes != 0 {
		t.Errorf("post-migration round still fetched %d dependent bytes remotely", rep2.Stats.RemoteBytes)
	}
	checkGrid(t, s, "in", g)
	checkGrid(t, s, "o1", want)
	checkGrid(t, s, "o2", want)
}

// TestDASRejectedOffloadFlipsToAccepted: without reconfiguration, DAS over
// round-robin rejects the offload (dependence is remote) and serves the
// round as normal I/O — but the rejection's predicted dependent bytes feed
// the migrator, and after the background migration the same request is
// accepted with fully local dependence.
func TestDASRejectedOffloadFlipsToAccepted(t *testing.T) {
	g := workload.Terrain(testW, testH, 5)
	k, _ := kernels.Default().Lookup("flow-routing")
	want := kernels.Apply(k, g)

	s := rig(t, g)
	defer s.Close()
	if err := s.EnableRestripe(restripe.Config{}); err != nil {
		t.Fatal(err)
	}

	rep1, err := s.Execute(core.Request{Op: "flow-routing", Input: "in", Output: "o1", Scheme: core.DAS})
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Offloaded {
		t.Fatal("DAS offloaded over round-robin; the rejection path is untested")
	}
	if s.Restripe.ActiveCount() != 1 {
		t.Fatalf("rejected offload admitted %d migrations, want 1", s.Restripe.ActiveCount())
	}
	drain(t, s)

	rep2, err := s.Execute(core.Request{Op: "flow-routing", Input: "in", Output: "o2", Scheme: core.DAS})
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Offloaded {
		t.Errorf("post-migration DAS still rejected: %+v", rep2.Decision)
	}
	if rep2.Stats.RemoteBytes != 0 {
		t.Errorf("accepted offload fetched %d dependent bytes remotely", rep2.Stats.RemoteBytes)
	}
	checkGrid(t, s, "o1", want)
	checkGrid(t, s, "o2", want)
}

// TestReadsStayCorrectMidMigration drives client reads of the whole file
// while the migration is in flight: each read interleaves with background
// copy batches, flips, and retires on the DES clock, and every one must
// return exactly the ingested bytes through the dual layout.
func TestReadsStayCorrectMidMigration(t *testing.T) {
	g := workload.Terrain(testW, testH, 5)
	s := rig(t, g)
	defer s.Close()
	// One move per tick keeps the migration slow enough that reads overlap
	// it many times.
	if err := s.EnableRestripe(restripe.Config{MovesPerTick: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute(core.Request{Op: "flow-routing", Input: "in", Output: "o1", Scheme: core.NAS}); err != nil {
		t.Fatal(err)
	}
	if s.Restripe.ActiveCount() == 0 {
		t.Fatal("no migration admitted")
	}
	midReads := 0
	for i := 0; i < 200 && s.Restripe.ActiveCount() > 0; i++ {
		checkGrid(t, s, "in", g)
		midReads++
	}
	if midReads == 0 {
		t.Fatal("migration finished before any mid-flight read")
	}
	drain(t, s)
	checkGrid(t, s, "in", g)
}

// TestCrashMidMigrationResumesFromCursor is the fault interaction: a
// server crashes while the migration is copying, the in-flight moves fail
// fast and park the migration, and after the restart the cursor resumes
// from exactly the uncommitted strips — converging with the file and a
// concurrently crashed NAS round both byte-identical to the reference.
func TestCrashMidMigrationResumesFromCursor(t *testing.T) {
	g := workload.Terrain(testW, testH, 5)
	k, _ := kernels.Default().Lookup("flow-routing")
	want := kernels.Apply(k, g)

	s := rig(t, g)
	defer s.Close()
	if err := s.EnableRestripe(restripe.Config{MovesPerTick: 2, RetryDelay: 5 * sim.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute(core.Request{Op: "flow-routing", Input: "in", Output: "o1", Scheme: core.NAS}); err != nil {
		t.Fatal(err)
	}
	if s.Restripe.ActiveCount() != 1 {
		t.Fatal("no migration admitted")
	}
	plan := fault.Plan{Events: []fault.Event{
		{At: 200 * sim.Microsecond, Kind: fault.Crash, Server: 1},
		{At: 40 * sim.Millisecond, Kind: fault.Restart, Server: 1},
	}}
	if err := s.Clu.InstallFaultPlan(plan); err != nil {
		t.Fatal(err)
	}
	// A foreground round runs while the crash interrupts the migration.
	if _, err := s.Execute(core.Request{Op: "flow-routing", Input: "in", Output: "o2", Scheme: core.NAS}); err != nil {
		t.Fatal(err)
	}
	drain(t, s)

	rs := s.Clu.Counters
	if rs.Get("restripe.resumes") == 0 {
		t.Error("migration completed without resuming a parked move — the crash never interrupted it")
	}
	var parked, resumed bool
	for _, ev := range s.Restripe.Events() {
		parked = parked || ev.Kind == "park"
		resumed = resumed || ev.Kind == "resume"
	}
	if !parked || !resumed {
		t.Errorf("event log missing park/resume: %v", s.Restripe.Events())
	}
	if rs.Get("restripe.completed") != 1 {
		t.Errorf("completed=%d, want 1", rs.Get("restripe.completed"))
	}
	m, _ := s.FS.Meta("in")
	if _, ok := m.Layout.(layout.GroupedReplicated); !ok {
		t.Errorf("post-crash layout is %s, want grouped-replicated", m.Layout.Name())
	}
	checkGrid(t, s, "in", g)
	checkGrid(t, s, "o1", want)
	checkGrid(t, s, "o2", want)
}

// TestForeignWriteDirtiesInFlightCopy: rewriting the input while its
// migration is copying must not let a stale pre-write copy win — the
// migrator discards dirtied attempts and re-copies, and the converged file
// reads back as the rewritten bytes.
func TestForeignWriteDirtiesInFlightCopy(t *testing.T) {
	g := workload.Terrain(testW, testH, 5)
	s := rig(t, g)
	defer s.Close()
	if err := s.EnableRestripe(restripe.Config{MovesPerTick: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute(core.Request{Op: "flow-routing", Input: "in", Output: "o1", Scheme: core.NAS}); err != nil {
		t.Fatal(err)
	}
	if s.Restripe.ActiveCount() != 1 {
		t.Fatal("no migration admitted")
	}
	// Rewrite the whole file mid-migration: the write runs the engine, so
	// copier batches race it strip by strip.
	g2 := workload.Terrain(testW, testH, 9)
	if _, err := s.RunProc("rewrite", func(p *sim.Proc) error {
		return s.FS.NewClient(s.Clu.ComputeID(0)).WriteAll(p, "in", g2.Bytes())
	}); err != nil {
		t.Fatal(err)
	}
	drain(t, s)
	checkGrid(t, s, "in", g2)
}

// TestThrottleBoundsInFlightBytes: a tight per-server budget forces copy
// moves to stall to later ticks; the migration still converges and the
// stalls are counted.
func TestThrottleBoundsInFlightBytes(t *testing.T) {
	g := workload.Terrain(testW, testH, 5)
	s := rig(t, g)
	defer s.Close()
	// Budget of exactly one two-target strip copy: a batch that tries to
	// put a second move in flight against the same server must stall.
	if err := s.EnableRestripe(restripe.Config{MaxInFlightBytes: 2 * testStrip}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute(core.Request{Op: "flow-routing", Input: "in", Output: "o1", Scheme: core.NAS}); err != nil {
		t.Fatal(err)
	}
	drain(t, s)
	if s.Clu.Counters.Get("restripe.throttle_stalls") == 0 {
		t.Error("tight in-flight budget produced no throttle stalls")
	}
	checkGrid(t, s, "in", g)
}

// TestEveryMoveReturnsItsReservation: moves that commit, moves a tight
// budget stalls and moves a crash fails all give their in-flight bytes
// back, so at every quiescence — each run and the drain, which check it
// (core.System.run) — no server is still charged.
func TestEveryMoveReturnsItsReservation(t *testing.T) {
	g := workload.Terrain(testW, testH, 5)
	s := rig(t, g)
	defer s.Close()
	if err := s.EnableRestripe(restripe.Config{MovesPerTick: 4, MaxInFlightBytes: 2 * testStrip, RetryDelay: 5 * sim.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute(core.Request{Op: "flow-routing", Input: "in", Output: "o1", Scheme: core.NAS}); err != nil {
		t.Fatal(err)
	}
	plan := fault.Plan{Events: []fault.Event{
		{At: 200 * sim.Microsecond, Kind: fault.Crash, Server: 2},
		{At: 40 * sim.Millisecond, Kind: fault.Restart, Server: 2},
	}}
	if err := s.Clu.InstallFaultPlan(plan); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute(core.Request{Op: "flow-routing", Input: "in", Output: "o2", Scheme: core.NAS}); err != nil {
		t.Fatal(err)
	}
	drain(t, s)
	if err := s.Restripe.CheckReleased(); err != nil {
		t.Error(err)
	}
	rs := s.Clu.Counters
	if rs.Get("restripe.bytes_copied") == 0 || rs.Get("restripe.throttle_stalls") == 0 || rs.Get("restripe.resumes") == 0 {
		t.Errorf("copied %d bytes with %d stalls and %d resumed moves: the run never held a reservation against a tight budget, or never failed a move",
			rs.Get("restripe.bytes_copied"), rs.Get("restripe.throttle_stalls"), rs.Get("restripe.resumes"))
	}
	checkGrid(t, s, "in", g)
}

// TestInvalidationsChainToCache: with both subsystems enabled the migrator
// owns the pfs invalidation hook and forwards to the halo-strip cache, so
// strips moved (and retired) under a warm cache never serve stale bytes.
func TestInvalidationsChainToCache(t *testing.T) {
	g := workload.Terrain(testW, testH, 5)
	k, _ := kernels.Default().Lookup("flow-routing")
	want := kernels.Apply(k, g)

	s := rig(t, g)
	defer s.Close()
	// Cache first, restripe second — EnableRestripe must take over the
	// hook and chain the cache behind itself.
	if err := s.EnableCache(cache.Config{}); err != nil {
		t.Fatal(err)
	}
	if err := s.EnableRestripe(restripe.Config{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute(core.Request{Op: "flow-routing", Input: "in", Output: "o1", Scheme: core.NAS}); err != nil {
		t.Fatal(err)
	}
	invalBefore := s.Clu.Counters.Get("cache.invalidations")
	drain(t, s)
	if s.Clu.Counters.Get("cache.invalidations") <= invalBefore {
		t.Error("migration moved strips without invalidating cached copies")
	}
	if _, err := s.Execute(core.Request{Op: "flow-routing", Input: "in", Output: "o2", Scheme: core.NAS}); err != nil {
		t.Fatal(err)
	}
	checkGrid(t, s, "o1", want)
	checkGrid(t, s, "o2", want)
}

// TestRestripeRunsDeterministic guards the DES contract: two identical
// systems running the identical migrating workload produce identical
// lifecycle events, counters, and engine event counts.
func TestRestripeRunsDeterministic(t *testing.T) {
	type outcome struct {
		planned, completed, moved, bytes, flips, stalls int64
		events                                          int
		engineEvents                                    uint64
		lastStatus                                      string
	}
	runOnce := func() outcome {
		g := workload.Terrain(testW, testH, 5)
		s := rig(t, g)
		defer s.Close()
		if err := s.EnableRestripe(restripe.Config{MovesPerTick: 3, MaxInFlightBytes: 2 * testStrip}); err != nil {
			t.Fatal(err)
		}
		for round, out := range []string{"a", "b"} {
			if _, err := s.Execute(core.Request{Op: "flow-routing", Input: "in", Output: out, Scheme: core.NAS}); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		drain(t, s)
		rs := s.Clu.Counters
		st := s.Restripe.Status()
		return outcome{
			planned: rs.Get("restripe.planned"), completed: rs.Get("restripe.completed"),
			moved: rs.Get("restripe.strips_moved"), bytes: rs.Get("restripe.bytes_copied"),
			flips: rs.Get("restripe.zero_copy_flips"), stalls: rs.Get("restripe.throttle_stalls"),
			events:       len(s.Restripe.Events()),
			engineEvents: s.Clu.Eng.Events(),
			lastStatus:   st[len(st)-1].String(),
		}
	}
	a, b := runOnce(), runOnce()
	if a != b {
		t.Errorf("identical migrating runs diverged:\n  run 1: %+v\n  run 2: %+v", a, b)
	}
	if a.completed != 1 || a.moved == 0 {
		t.Errorf("workload did not exercise the migrator: %+v", a)
	}
}
