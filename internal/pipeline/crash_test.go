package pipeline

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"github.com/hpcio/das/internal/active"
	"github.com/hpcio/das/internal/cluster"
	"github.com/hpcio/das/internal/fault"
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/pfs"
	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/trace"
)

// TestPipelineCrashWithARoundPrefetched crashes a server in the middle of
// one run of a diamond DAG's combine round, when the next run's two parent
// bands are already assembled and waiting for the compute, and restarts it
// with its retained state gone, every pool scribbling over what is
// returned to it. The client reassigns the lost strips and a holder
// catches their lineage up from the input — the combine evaluated from
// pooled lineage bands, and traced as a catch-up. The output and the
// reduce are the reference's bit for bit, every request is answered once,
// no pooled buffer is left out, nothing stays parked, and shutting the
// platform down returns every coroutine.
func TestPipelineCrashWithARoundPrefetched(t *testing.T) {
	audited(t)
	baseline := runtime.NumGoroutine()
	d := diamondStats()
	// Mirrored groups of two one-row strips: four runs a server, a live
	// copy of every strip through the crash. Compute-bound, so that a
	// run's operands wait for the kernel and not the kernel for them.
	lay := layout.NewGroupedReplicated(4, 2, 2)
	cfg := cluster.Default()
	cfg.ComputeNsPerElem *= 20

	// combinesAndCatchUps returns server 1's combine computes and every
	// server's catch-up computes.
	combinesAndCatchUps := func(rec *trace.Recorder) (combines, catchUps []trace.Event) {
		for _, e := range rec.Events() {
			switch {
			case e.Actor == "server-1/compute" && e.Phase == "compute" && strings.HasPrefix(e.Note, "c over"):
				combines = append(combines, e)
			case strings.HasPrefix(e.Note, "catch-up "):
				catchUps = append(catchUps, e)
			}
		}
		return combines, catchUps
	}

	// Aim at the middle of server 1's second combine run, on a run with the
	// fault paths armed but no fault inside it: the two runs after it are
	// still to come, so the next one's operands were assembled when its
	// compute began.
	healthy := crashRun(t, cfg, lay, d, sim.Second, sim.Second)
	healthy.rig.clu.Eng.Shutdown()
	combines, catchUps := combinesAndCatchUps(healthy.rec)
	if len(combines) < 3 {
		t.Fatalf("server 1 computed %d combine runs: too few to crash with one prefetched", len(combines))
	}
	if len(catchUps) != 0 {
		t.Errorf("the healthy run traced %d catch-ups", len(catchUps))
	}
	mid := combines[1]
	crashAt := mid.At + mid.Dur/2

	c := crashRun(t, cfg, lay, d, crashAt, mid.Dur)
	rig, res := c.rig, c.res
	combines, catchUps = combinesAndCatchUps(c.rec)
	if len(combines) < 2 || combines[1] != mid {
		t.Errorf("the crashed run's combine computes on server 1 start %v, the healthy run's %v", combines, mid)
	}
	// Recovery is traced as recovery: a catch-up's compute names the
	// lineage it evaluated, from the input through the combine.
	if len(catchUps) == 0 {
		t.Error("the crashed run traced no catch-up compute")
	}
	for _, e := range catchUps {
		if e.Phase != "compute" || !strings.HasSuffix(e.Actor, "/compute") ||
			!strings.HasPrefix(e.Note, "catch-up gaussian-filter+surface-slope+add") {
			t.Errorf("catch-up traced as %s %s %q", e.Actor, e.Phase, e.Note)
		}
	}
	wantReference(t, rig, d, "out", res)
	if res.CatchUps == 0 {
		t.Error("the restart wiped server 1's state, yet no strip's lineage was caught up")
	}
	if live := rig.clu.Eng.Live(); live != 0 {
		t.Errorf("%d processes still live after the run", live)
	}
	rig.clu.Eng.Shutdown()
	// Not "!=": a platform an earlier test left open may end a goroutine
	// meanwhile; one left open here is dozens.
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("%d goroutines after shutdown, %d before the platforms were built", n, baseline)
	}
}

// diamondStats is a DAG with a combine, a kernel after it and a reduce:
// its catch-up evaluates a branching lineage from the input.
func diamondStats() kernels.DAG {
	return kernels.DAG{Name: "diamond-stats", Nodes: []kernels.Node{
		{ID: "a", Kind: kernels.KindKernel, Op: "gaussian-filter"},
		{ID: "b", Kind: kernels.KindKernel, Op: "surface-slope"},
		{ID: "c", Kind: kernels.KindCombine, Op: "add", Parents: []string{"a", "b"}},
		{ID: "d", Kind: kernels.KindKernel, Op: "diffusion", Parents: []string{"c"}},
		{ID: "r", Kind: kernels.KindReduce, Op: "stats", Parents: []string{"d"}},
	}}
}

// crashed is one crashRun: the platform, the result, the trace, and the
// clock when the client started and when it returned.
type crashed struct {
	rig        *testRig
	res        RunResult
	rec        *trace.Recorder
	start, end sim.Time
}

// crashRun runs d, traced, on a fresh platform of cfg's cost model and
// lay's placement, with server 1 crashing at crashAt on the platform's
// clock and restarting downFor later (never when downFor is 0).
func crashRun(t *testing.T, cfg cluster.Config, lay layout.Layout, d kernels.DAG, crashAt, downFor sim.Time) crashed {
	t.Helper()
	rig := newRigOn(t, cfg, lay, testW, testH, testStrip, func(fs *pfs.FileSystem) *Service {
		return Deploy(fs, kernels.Default(), nil, nil)
	})
	return rig.crashRun(t, d, "out", crashAt, downFor)
}

// crashRun runs d, traced, into a new output file out on the rig, with
// server 1 crashing at crashAt on the platform's clock and restarting
// downFor later (never when downFor is 0).
func (rig *testRig) crashRun(t *testing.T, d kernels.DAG, out string, crashAt, downFor sim.Time) crashed {
	t.Helper()
	rig.createOut(t, out)
	at := crashAt - rig.clu.Eng.Now() // plan times count from the install
	events := []fault.Event{{At: at, Kind: fault.Crash, Server: 1}}
	if downFor > 0 {
		events = append(events, fault.Event{At: at + downFor, Kind: fault.Restart, Server: 1})
	}
	if err := rig.clu.InstallFaultPlan(fault.Plan{Events: events}); err != nil {
		t.Fatal(err)
	}
	c := crashed{rig: rig, rec: trace.New(0), start: rig.clu.Eng.Now()}
	rig.clu.Trace = c.rec
	rig.run(t, func(p *sim.Proc) error {
		var err error
		c.res, err = rig.svc.NewClient(rig.clu.ComputeID(0)).Run(p, d, "in", out)
		c.end = p.Now()
		return err
	})
	return c
}

// crashMidRun is crashRun on the default cost model with the crash halfway
// through a run whose crash comes only after it ends.
func crashMidRun(t *testing.T, lay layout.Layout, d kernels.DAG, downFor sim.Time) crashed {
	t.Helper()
	healthy := crashRun(t, cluster.Default(), lay, d, sim.Second, sim.Second)
	healthy.rig.clu.Eng.Shutdown()
	return crashRun(t, cluster.Default(), lay, d, (healthy.start+healthy.end)/2, downFor)
}

// wantReference checks the run's output file out and its reduce against
// the sequential evaluation of d over the rig's input, bit for bit, that
// every output strip is on its primary when the primary is up — a strip's
// single write point, which reads try first — and that every request the
// run delivered was answered once.
func wantReference(t *testing.T, rig *testRig, d kernels.DAG, out string, res RunResult) {
	t.Helper()
	m, _ := rig.fs.Meta(out)
	for s := int64(0); s < m.Strips(); s++ {
		if p := m.Layout.Primary(s); !rig.clu.ServerDown(p) && !rig.fs.Server(p).Holds(out, s) {
			t.Errorf("output strip %d is not on its live primary, server %d", s, p)
		}
	}
	want, err := kernels.ApplyDAG(d, kernels.Default(), kernels.DefaultCombiners(), rig.g)
	if err != nil {
		t.Fatal(err)
	}
	if got := rig.fetch(t, out); !got.Equal(want) {
		t.Errorf("output differs from the reference (max diff %g)", got.MaxAbsDiff(want))
	}
	wantReduce := kernels.ReduceStriped(kernels.Stats{}, want, m.StripSize/grid.ElemSize)
	if len(res.Reduce) != len(wantReduce) {
		t.Fatalf("reduce has %d values, want %d", len(res.Reduce), len(wantReduce))
	}
	for i := range wantReduce {
		if res.Reduce[i] != wantReduce[i] {
			t.Errorf("reduce[%d] = %v, want %v", i, res.Reduce[i], wantReduce[i])
		}
	}
	if err := rig.clu.Net.CheckReplies(); err != nil {
		t.Error(err)
	}
}

// TestCatchUpSpreadsOverLiveHolders crashes a server of a mirrored layout
// for good in mid-run. The strips whose state it held, and those whose
// stage pulled from it, have their lineage caught up from the input, and
// any live holder of a strip can do that: each run of strips sharing their
// holders goes to the one given the fewest so far, so no server takes more
// than an even share of the wave plus one run — where the first live
// holder would take them all. The output and reduce are the reference's,
// every pooled buffer comes back and every request is answered once.
func TestCatchUpSpreadsOverLiveHolders(t *testing.T) {
	audited(t)
	lay := layout.NewGroupedReplicated(4, 2, 2)
	d := diamondStats()
	c := crashMidRun(t, lay, d, 0)
	rig, res := c.rig, c.res
	defer rig.clu.Eng.Shutdown()
	wantReference(t, rig, d, "out", res)

	elemsPerStrip := int64(testStrip / grid.ElemSize)
	took := map[string]int64{}
	var total int64
	for _, e := range c.rec.Events() {
		if !strings.HasPrefix(e.Note, "catch-up ") {
			continue
		}
		var elems int64
		if _, err := fmt.Sscanf(e.Note[strings.LastIndex(e.Note, " over ")+1:], "over %d elements", &elems); err != nil {
			t.Fatalf("catch-up note %q: %v", e.Note, err)
		}
		took[e.Actor] += elems / elemsPerStrip
		total += elems / elemsPerStrip
	}
	if total == 0 || total != res.CatchUps {
		t.Fatalf("traced %d catch-up strips, the client counted %d", total, res.CatchUps)
	}
	// Every live server holds a copy of some caught-up strip here: the
	// crash failed its neighbours' pulls too, and their strips are
	// mirrored onto the third live server.
	const live = 3
	limit := (total+live-1)/live + int64(lay.R)
	for actor, n := range took {
		if n > limit {
			t.Errorf("%s caught up %d of %d strips; with %d live holders, want at most %d", actor, n, total, live, limit)
		}
	}
	if len(took) != live {
		t.Errorf("catch-ups ran on %v, want a share on each of the %d live servers", took, live)
	}
}

// TestCrashRestartRunEndsWithTheClient crashes a server mid-run and
// restarts it before the run ends. No process of the dead incarnation may
// outlive the run — none still waiting on a reply that cannot come — so the
// engine goes idle at the instant the client returns.
func TestCrashRestartRunEndsWithTheClient(t *testing.T) {
	audited(t)
	d := diamondStats()
	c := crashMidRun(t, layout.NewGroupedReplicated(4, 2, 2), d, sim.Millisecond)
	rig, res := c.rig, c.res
	defer rig.clu.Eng.Shutdown()
	if res.CatchUps == 0 {
		t.Error("the crash lost no state to catch up")
	}
	if now := rig.clu.Eng.Now(); now != c.end {
		t.Errorf("the engine went idle at %v, %v after the client returned", now, now-c.end)
	}
	if live := rig.clu.Eng.Live(); live != 0 {
		t.Errorf("%d processes still live after the run", live)
	}
	wantReference(t, rig, d, "out", res)
}

// crashStorm crashes and restarts every server of the rig every 50 µs for
// 200 ms: less than one message's latency apart, so no reply of any wave
// comes back.
func crashStorm(t *testing.T, rig *testRig) {
	t.Helper()
	const period = 50 * sim.Microsecond
	var plan fault.Plan
	for at := period; at <= 200*sim.Millisecond; at += period {
		for srv := 0; srv < rig.fs.Servers(); srv++ {
			plan.Events = append(plan.Events,
				fault.Event{At: at, Kind: fault.Crash, Server: srv},
				fault.Event{At: at + sim.Nanosecond, Kind: fault.Restart, Server: srv})
		}
	}
	if err := rig.clu.InstallFaultPlan(plan); err != nil {
		t.Fatal(err)
	}
}

// TestFailedRunReleasesItsState: a pipeline Run that gives up under the
// crash storm still tells every server to drop the run's retained state,
// as a run that succeeds does. Once the plan has ended no server holds any.
func TestFailedRunReleasesItsState(t *testing.T) {
	audited(t)
	rig := newRig(t, layout.NewGroupedReplicated(4, 2, 2), testW, testH, testStrip)
	defer rig.clu.Eng.Shutdown()
	rig.createOut(t, "out")
	crashStorm(t, rig)
	var runErr error
	rig.run(t, func(p *sim.Proc) error {
		_, runErr = rig.svc.NewClient(rig.clu.ComputeID(0)).Run(p, diamondStats(), "in", "out")
		p.Sleep(201*sim.Millisecond - p.Now()) // past the plan's last restart
		return nil
	})
	if !errors.Is(runErr, pfs.ErrTimeout) {
		t.Fatalf("Run returned %v, want an error wrapping pfs.ErrTimeout", runErr)
	}
	for s, runs := range rig.svc.runs {
		for token := range runs {
			t.Errorf("server %d still holds the state of the failed run %s", s, token)
		}
	}
	if err := rig.clu.Net.CheckReplies(); err != nil {
		t.Error(err)
	}
}

// TestEveryOffloadGivesUpAfterOneRetryBound crashes and restarts every
// server every 50 µs — less than one message's latency, so no reply of any
// wave ever comes — for far longer than the calls last. Exec and a pipeline
// Run place and re-send through the one dispatch loop, so each must give
// up after the same number of re-sending waves with an error wrapping
// pfs.ErrTimeout; a loop without its bound would outlast the plan and
// succeed. Neither leaves a process running, a pooled buffer out or a
// delivered request unanswered.
func TestEveryOffloadGivesUpAfterOneRetryBound(t *testing.T) {
	audited(t)
	rig := newRig(t, layout.NewGroupedReplicated(4, 2, 2), testW, testH, testStrip)
	defer rig.clu.Eng.Shutdown()
	as := active.NewClient(rig.fs, rig.clu.ComputeID(0))
	active.Deploy(rig.fs, kernels.Default(), nil)
	rig.createOut(t, "exec.out")
	rig.createOut(t, "out")
	crashStorm(t, rig)
	retries := func() int64 { return rig.clu.Counters.Get("recovery.exec_retries") }
	var execErr, runErr error
	var execRetries, runRetries int64
	rig.run(t, func(p *sim.Proc) error {
		_, execErr = as.Exec(p, "gaussian-filter", "in", "exec.out", active.FetchWholeStrips)
		execRetries = retries()
		_, runErr = rig.svc.NewClient(rig.clu.ComputeID(0)).Run(p, diamondStats(), "in", "out")
		runRetries = retries() - execRetries
		return nil
	})
	for _, c := range []struct {
		name    string
		err     error
		retries int64
	}{{"Exec", execErr, execRetries}, {"Run", runErr, runRetries}} {
		if !errors.Is(c.err, pfs.ErrTimeout) {
			t.Errorf("%s returned %v, want an error wrapping pfs.ErrTimeout", c.name, c.err)
		}
		if c.retries == 0 || c.retries != execRetries {
			t.Errorf("%s re-sent %d waves, Exec %d: want one bound, above zero", c.name, c.retries, execRetries)
		}
	}
	if live := rig.clu.Eng.Live(); live != 0 {
		t.Errorf("%d processes still live after the calls", live)
	}
	if err := rig.clu.Net.CheckReplies(); err != nil {
		t.Error(err)
	}
}
