package core

import (
	"errors"
	"testing"

	"github.com/hpcio/das/internal/fault"
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/pfs"
	"github.com/hpcio/das/internal/predict"
	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/trace"
	"github.com/hpcio/das/internal/workload"
)

// crashSurvivableLayout is a grouped-replicated layout with halo == r:
// every strip is mirrored to both neighboring servers, so any single
// server crash leaves a live copy of everything. (The paper's halo < r
// configurations trade that coverage for capacity: their interior strips
// have no replicas.)
func crashSurvivableLayout(d int) layout.Layout {
	return layout.NewGroupedReplicated(d, 2, 2)
}

// ingested builds a system and ingests the test terrain under lay.
func ingested(t *testing.T, g *grid.Grid, lay layout.Layout) *System {
	t.Helper()
	s, err := NewSystem(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.IngestGrid("in", g, lay, testStrip); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDASSurvivesMidRunCrashByteIdentical is the headline fault e2e: one
// storage server crashes in the middle of an offloaded DAS run under the
// fully replicated layout, the dead server's strips are reassigned to
// their replica holders, and the output matches the sequential reference
// byte for byte.
func TestDASSurvivesMidRunCrashByteIdentical(t *testing.T) {
	g := workload.Terrain(testW, testH, 5)
	k, _ := kernels.Default().Lookup("flow-routing")
	want := kernels.Apply(k, g)

	// Fault-free baseline on the same layout, to aim the crash mid-run.
	// Full mirroring pays more replica-maintenance bytes than normal I/O
	// moves, so the bandwidth criterion alone would reject it — the
	// availability layout is chosen for coverage, and the run forces the
	// offload the way the ablation flag exists for.
	base := ingested(t, g, crashSurvivableLayout(4))
	baseRep, err := base.Execute(Request{
		Op: "flow-routing", Input: "in", Output: "out", Scheme: DAS, DisablePrediction: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !baseRep.Offloaded {
		t.Fatalf("baseline DAS did not offload: %+v", baseRep.Decision)
	}

	s := ingested(t, g, crashSurvivableLayout(4))
	plan := fault.Plan{Events: []fault.Event{
		{At: baseRep.ExecTime / 2, Kind: fault.Crash, Server: 1},
	}}
	if err := s.Clu.InstallFaultPlan(plan); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Execute(Request{
		Op: "flow-routing", Input: "in", Output: "out", Scheme: DAS, DisablePrediction: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Offloaded {
		t.Errorf("DAS under crash did not offload: %+v", rep.Decision)
	}
	got, err := s.FetchGrid("out")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Errorf("crashed run output differs from reference (max diff %g)", got.MaxAbsDiff(want))
	}
	if s.Clu.FaultLog.Len() != 1 {
		t.Errorf("fault log has %d records, want 1", s.Clu.FaultLog.Len())
	}
	if s.Clu.Counters.Get("recovery.exec_retries") == 0 && s.Clu.Counters.Get("recovery.failover_reads") == 0 {
		t.Error("mid-run crash triggered no recovery actions at all")
	}
}

// TestLostStripsSpreadOverTheirHolders crashes server 1 mid-Exec, for
// good, under the layout that mirrors every strip to both neighbours: the
// strips its lost reply returns are run again by both of their live
// holders, server 0 and server 2, rather than all queued on the first.
// Compute time is proportional to the strips computed, so each of the two
// must have computed more than server 3, which ran only its own.
func TestLostStripsSpreadOverTheirHolders(t *testing.T) {
	g := workload.Terrain(testW, testH, 5)
	req := Request{Op: "flow-routing", Input: "in", Output: "out", Scheme: DAS, DisablePrediction: true}
	// Job startup is most of ExecTime: aim the crash at server 1's first
	// compute in a healthy run, so it dies holding its strips.
	base := ingested(t, g, crashSurvivableLayout(4))
	rec := trace.New(0)
	base.Clu.Trace = rec
	start := base.Clu.Eng.Now()
	if _, err := base.Execute(req); err != nil {
		t.Fatal(err)
	}
	crashAt := sim.Time(-1)
	for _, e := range rec.Events() {
		if e.Actor == "server-1/compute" && e.Phase == "compute" {
			crashAt = e.At - start
			break
		}
	}
	if crashAt < 0 {
		t.Fatal("server 1 computed nothing in the healthy run")
	}

	s := ingested(t, g, crashSurvivableLayout(4))
	if err := s.Clu.InstallFaultPlan(fault.Plan{Events: []fault.Event{
		{At: crashAt, Kind: fault.Crash, Server: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	rec = trace.New(0)
	s.Clu.Trace = rec
	rep, err := s.Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Rounds < 2 {
		t.Fatalf("the crash reassigned nothing: %d dispatch round(s)", rep.Stats.Rounds)
	}
	computed := map[string]sim.Time{}
	for _, ph := range rec.Summarize() {
		if ph.Phase == "compute" {
			computed[ph.Actor] = ph.Total
		}
	}
	own := computed["server-3/compute"]
	for _, srv := range []string{"server-0/compute", "server-2/compute"} {
		if computed[srv] <= own {
			t.Errorf("%s computed for %v, server 3 alone for %v: it ran none of server 1's strips (all compute: %v)",
				srv, computed[srv], own, computed)
		}
	}
	k, _ := kernels.Default().Lookup("flow-routing")
	got, err := s.FetchGrid("out")
	if err != nil {
		t.Fatal(err)
	}
	if want := kernels.Apply(k, g); !got.Equal(want) {
		t.Errorf("output differs from reference (max diff %g)", got.MaxAbsDiff(want))
	}
}

// TestNASDegradesToTSWhenStripsLoseTheirServer: under round-robin there
// are no replicas, so a crashed server makes offloading impossible — the
// NAS request must fall back to normal I/O, which bridges the planned
// restart and still produces the right answer.
func TestNASDegradesToTSWhenStripsLoseTheirServer(t *testing.T) {
	g := workload.Terrain(testW, testH, 5)
	s := ingested(t, g, layout.NewRoundRobin(4))
	plan := fault.Plan{Events: []fault.Event{
		{At: 0, Kind: fault.Crash, Server: 1},
		{At: 80 * sim.Millisecond, Kind: fault.Restart, Server: 1},
	}}
	if err := s.Clu.InstallFaultPlan(plan); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Execute(Request{Op: "flow-routing", Input: "in", Output: "out", Scheme: NAS})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Offloaded {
		t.Error("NAS offloaded with a dead unreplicated server")
	}
	if !rep.Degraded || rep.DegradedReason == "" {
		t.Errorf("report not marked degraded: %+v", rep)
	}
	k, _ := kernels.Default().Lookup("flow-routing")
	want := kernels.Apply(k, g)
	got, err := s.FetchGrid("out")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Error("degraded run output differs from reference")
	}
}

// TestDASPermanentCrashWithoutReplicasFailsTyped: no replicas and no
// restart means the data is simply unreachable. The run must fail with the
// typed no-live-copy error — never a panic — after the degraded decision
// already routed it away from offloading.
func TestDASPermanentCrashWithoutReplicasFailsTyped(t *testing.T) {
	g := workload.Terrain(testW, testH, 5)
	s := ingested(t, g, layout.NewRoundRobin(4))
	plan := fault.Plan{Events: []fault.Event{
		{At: 0, Kind: fault.Crash, Server: 2},
	}}
	if err := s.Clu.InstallFaultPlan(plan); err != nil {
		t.Fatal(err)
	}
	_, err := s.Execute(Request{Op: "flow-routing", Input: "in", Output: "out", Scheme: DAS})
	if err == nil {
		t.Fatal("DAS run with permanently lost strips succeeded")
	}
	if !errors.Is(err, pfs.ErrNoLiveCopy) {
		t.Errorf("error %v, want ErrNoLiveCopy", err)
	}
}

// TestDegradedDecisionVetoesOffload checks the prediction side on its own:
// with a server down under round-robin, the gate must reject and count the
// unservable strips.
func TestDegradedDecisionVetoesOffload(t *testing.T) {
	g := workload.Terrain(testW, testH, 5)
	s := ingested(t, g, layout.NewRoundRobin(4))
	plan := fault.Plan{Events: []fault.Event{{At: 0, Kind: fault.Crash, Server: 1}}}
	if err := s.Clu.InstallFaultPlan(plan); err != nil {
		t.Fatal(err)
	}
	// Fire the plan's events by running an empty workload.
	if _, err := s.run("tick", func(p *sim.Proc) error { p.Sleep(sim.Millisecond); return nil }); err != nil {
		t.Fatal(err)
	}
	m, _ := s.FS.Meta("in")
	pat, _ := s.Features.Lookup("flow-routing")
	d, err := s.decide(predict.Kernel(pat), predictParams(m), m.Layout, "in")
	if err != nil {
		t.Fatal(err)
	}
	if d.Offload {
		t.Errorf("degraded decision offloaded: %+v", d)
	}
	if d.Analysis.UnservableStrips == 0 {
		t.Error("no unservable strips counted with a dead round-robin server")
	}
	if !d.Degraded || d.Analysis.BWCostBytes != 0 {
		t.Errorf("degraded decision took the healthy element-level sum: degraded=%v bwcost=%d", d.Degraded, d.Analysis.BWCostBytes)
	}
}

// TestFaultedDASIsDeterministic: the same plan against the same workload
// reproduces the same simulated completion time and recovery counts.
func TestFaultedDASIsDeterministic(t *testing.T) {
	g := workload.Terrain(testW, testH, 5)
	run := func() (sim.Time, int64) {
		s := ingested(t, g, crashSurvivableLayout(4))
		plan := fault.Plan{Seed: 11, Events: []fault.Event{
			{At: 5 * sim.Millisecond, Kind: fault.Crash, Server: 1},
			{At: 60 * sim.Millisecond, Kind: fault.Restart, Server: 1},
		}}
		if err := s.Clu.InstallFaultPlan(plan); err != nil {
			t.Fatal(err)
		}
		rep, err := s.Execute(Request{
			Op: "flow-routing", Input: "in", Output: "out", Scheme: DAS, DisablePrediction: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.ExecTime, s.Clu.Counters.Get("recovery.exec_retries") + s.Clu.Counters.Get("recovery.failover_reads")
	}
	t1, r1 := run()
	t2, r2 := run()
	if t1 != t2 || r1 != r2 {
		t.Errorf("nondeterministic faulted run: (%v,%d) vs (%v,%d)", t1, r1, t2, r2)
	}
}

// TestReconfigureDeclinesWithAServerDown: a reconfigure request that finds
// a storage server already down keeps the input's layout — a migration
// would park on the dead server — and runs the job on it, offloaded to
// the live holders; the output still equals the sequential reference. The
// offload is forced, as in the crash tests above: the degraded verdict
// serves normal I/O, which writes each strip through its primary and so
// cannot write with one down.
func TestReconfigureDeclinesWithAServerDown(t *testing.T) {
	g := workload.Terrain(testW, testH, 5)
	lay := crashSurvivableLayout(4)
	s := ingested(t, g, lay)
	if err := s.Clu.ApplyFault(fault.Event{Kind: fault.Crash, Server: 2}); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Execute(Request{
		Op: "gaussian-filter", Input: "in", Output: "out", Scheme: DAS, Reconfigure: true, DisablePrediction: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reconfigured {
		t.Error("reconfigured with a server down")
	}
	if m, _ := s.FS.Meta("in"); m.Layout.Name() != lay.Name() {
		t.Errorf("input moved to %s with a server down", m.Layout.Name())
	}
	got, err := s.FetchGrid("out")
	if err != nil {
		t.Fatal(err)
	}
	if want := kernels.Apply(kernels.Gaussian{}, g); !got.Equal(want) {
		t.Errorf("output differs from the reference (max diff %g)", got.MaxAbsDiff(want))
	}
}

// TestReconfigureSurvivesCrashAndRestartMidMigration crashes a server
// halfway through a healthy reconfigure's migration and restarts it once
// the copies in flight to or from it have given up — pfs.DownRetries
// backoffs — but inside the drain's retry budget: the moves that parked on
// it resume, the request migrates and offloads, and the output equals the
// sequential reference.
func TestReconfigureSurvivesCrashAndRestartMidMigration(t *testing.T) {
	g := workload.Terrain(testW, testH, 5)
	req := Request{Op: "gaussian-filter", Input: "in", Output: "out", Scheme: DAS, Reconfigure: true}
	base, err := ingested(t, g, layout.NewRoundRobin(4)).Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	if !base.Reconfigured {
		t.Fatalf("healthy reconfigure did not migrate: %+v", base.Decision)
	}

	s := ingested(t, g, layout.NewRoundRobin(4))
	crashAt := base.ReconfigTime / 2
	if err := s.Clu.InstallFaultPlan(fault.Plan{Events: []fault.Event{
		{At: crashAt, Kind: fault.Crash, Server: 1},
		{At: crashAt + pfs.DownBackoff*(1<<pfs.DownRetries-1) + 10*sim.Millisecond, Kind: fault.Restart, Server: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Reconfigured || !rep.Offloaded {
		t.Errorf("reconfigured=%v offloaded=%v after a crash and restart mid-migration", rep.Reconfigured, rep.Offloaded)
	}
	if n := s.Clu.Counters.Get("restripe.resumes"); n == 0 || rep.ReconfigTime <= base.ReconfigTime {
		t.Errorf("migration took %v with a crash mid-way, %v healthy, and resumed %d moves: the crash missed it",
			rep.ReconfigTime, base.ReconfigTime, n)
	}
	got, err := s.FetchGrid("out")
	if err != nil {
		t.Fatal(err)
	}
	if want := kernels.Apply(kernels.Gaussian{}, g); !got.Equal(want) {
		t.Errorf("output differs from the reference (max diff %g)", got.MaxAbsDiff(want))
	}
}

// TestReconfigureResumesAParkedMigration: a server that crashes mid-way
// through a reconfigure's migration and stays down fails the request with
// ErrServerDown, leaving the input migrating toward the planned layout.
// Once the server restarts, the next reconfigure request resumes that
// migration instead of declining on the dual layout, and its output
// equals the sequential reference.
func TestReconfigureResumesAParkedMigration(t *testing.T) {
	g := workload.Terrain(testW, testH, 5)
	req := Request{Op: "gaussian-filter", Input: "in", Output: "out", Scheme: DAS, Reconfigure: true}
	base, err := ingested(t, g, layout.NewRoundRobin(4)).Execute(req)
	if err != nil {
		t.Fatal(err)
	}

	s := ingested(t, g, layout.NewRoundRobin(4))
	if err := s.Clu.InstallFaultPlan(fault.Plan{Events: []fault.Event{
		{At: base.ReconfigTime / 2, Kind: fault.Crash, Server: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute(req); !errors.Is(err, pfs.ErrServerDown) {
		t.Fatalf("reconfigure with a server gone for good: %v, want ErrServerDown", err)
	}
	m, _ := s.FS.Meta("in")
	if _, dual := m.Layout.(*layout.Migrating); !dual {
		t.Fatalf("failed reconfigure left layout %s, want the dual layout", m.Layout.Name())
	}
	if err := s.Clu.ApplyFault(fault.Event{Kind: fault.Restart, Server: 1}); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Reconfigured || !rep.Offloaded {
		t.Errorf("reconfigured=%v offloaded=%v after the restart", rep.Reconfigured, rep.Offloaded)
	}
	if m.Layout.Name() != base.Decision.Analysis.Layout {
		t.Errorf("input ended on %s, want the planned %s", m.Layout.Name(), base.Decision.Analysis.Layout)
	}
	got, err := s.FetchGrid("out")
	if err != nil {
		t.Fatal(err)
	}
	if want := kernels.Apply(kernels.Gaussian{}, g); !got.Equal(want) {
		t.Errorf("output differs from the reference (max diff %g)", got.MaxAbsDiff(want))
	}
}
