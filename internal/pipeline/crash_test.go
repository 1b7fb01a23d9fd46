package pipeline

import (
	"runtime"
	"strings"
	"testing"

	"github.com/hpcio/das/internal/cluster"
	"github.com/hpcio/das/internal/fault"
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/pfs"
	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/trace"
	"github.com/hpcio/das/internal/workload"
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
	d := kernels.DAG{Name: "diamond-stats", Nodes: []kernels.Node{
		{ID: "a", Kind: kernels.KindKernel, Op: "gaussian-filter"},
		{ID: "b", Kind: kernels.KindKernel, Op: "surface-slope"},
		{ID: "c", Kind: kernels.KindCombine, Op: "add", Parents: []string{"a", "b"}},
		{ID: "d", Kind: kernels.KindKernel, Op: "diffusion", Parents: []string{"c"}},
		{ID: "r", Kind: kernels.KindReduce, Op: "stats", Parents: []string{"d"}},
	}}
	g := workload.Terrain(testW, testH, 11)
	want, err := kernels.ApplyDAG(d, kernels.Default(), kernels.DefaultCombiners(), g)
	if err != nil {
		t.Fatal(err)
	}
	wantReduce := kernels.ReduceStriped(kernels.Stats{}, want, testStrip/grid.ElemSize)
	// Mirrored groups of two one-row strips: four runs a server, a live
	// copy of every strip through the crash. Compute-bound, so that a
	// run's operands wait for the kernel and not the kernel for them.
	lay := layout.NewGroupedReplicated(4, 2, 2)
	cfg := cluster.Default()
	cfg.ComputeNsPerElem *= 20

	// run executes the DAG on a fresh platform with server 1 crashing at
	// crashAt on its clock and restarting downFor later, and returns the
	// platform, the result, server 1's combine computes and every server's
	// catch-up computes.
	run := func(crashAt, downFor sim.Time) (rig *testRig, res RunResult, combines, catchUps []trace.Event) {
		rig = newRigOn(t, cfg, lay, testW, testH, testStrip, func(fs *pfs.FileSystem) *Service {
			return Deploy(fs, kernels.Default(), nil, nil)
		})
		rig.createOut(t, "out")
		at := crashAt - rig.clu.Eng.Now() // plan times count from the install
		if err := rig.clu.InstallFaultPlan(fault.Plan{Events: []fault.Event{
			{At: at, Kind: fault.Crash, Server: 1},
			{At: at + downFor, Kind: fault.Restart, Server: 1},
		}}); err != nil {
			t.Fatal(err)
		}
		rec := trace.New(0)
		rig.clu.Trace = rec
		res, err := rig.pipeline(t, d, "in", "out")
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range rec.Events() {
			switch {
			case e.Actor == "server-1/compute" && e.Phase == "compute" && strings.HasPrefix(e.Note, "c over"):
				combines = append(combines, e)
			case strings.HasPrefix(e.Note, "catch-up "):
				catchUps = append(catchUps, e)
			}
		}
		return rig, res, combines, catchUps
	}

	// Aim at the middle of server 1's second combine run, on a run with the
	// fault paths armed but no fault inside it: the two runs after it are
	// still to come, so the next one's operands were assembled when its
	// compute began.
	healthy, _, combines, catchUps := run(sim.Second, sim.Second)
	healthy.clu.Eng.Shutdown()
	if len(combines) < 3 {
		t.Fatalf("server 1 computed %d combine runs: too few to crash with one prefetched", len(combines))
	}
	if len(catchUps) != 0 {
		t.Errorf("the healthy run traced %d catch-ups", len(catchUps))
	}
	mid := combines[1]
	crashAt := mid.At + mid.Dur/2

	rig, res, combines, catchUps := run(crashAt, mid.Dur)
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
	if got := rig.fetch(t, "out"); !got.Equal(want) {
		t.Errorf("output under a crash with a round prefetched differs from the reference (max diff %g)", got.MaxAbsDiff(want))
	}
	if len(res.Reduce) != len(wantReduce) {
		t.Fatalf("reduce has %d values, want %d", len(res.Reduce), len(wantReduce))
	}
	for i := range wantReduce {
		if res.Reduce[i] != wantReduce[i] {
			t.Errorf("reduce[%d] = %v, want %v", i, res.Reduce[i], wantReduce[i])
		}
	}
	if res.CatchUps == 0 {
		t.Error("the restart wiped server 1's state, yet no strip's lineage was caught up")
	}
	if err := rig.clu.Net.CheckReplies(); err != nil {
		t.Error(err)
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
