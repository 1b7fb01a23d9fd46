package core

import (
	"errors"
	"math"
	"testing"

	"github.com/hpcio/das/internal/bufpool"
	"github.com/hpcio/das/internal/cluster"
	"github.com/hpcio/das/internal/fault"
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/pfs"
	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/workload"
)

func TestReduceSchemesAgreeWithSequential(t *testing.T) {
	g := workload.Terrain(testW, testH, 5)
	want := kernels.ReduceAll(kernels.Stats{}, g)
	for _, scheme := range []Scheme{TS, NAS, DAS} {
		s := newSystem(t, scheme, g)
		rep, err := s.Reduce(ReduceRequest{Op: "stats", Input: "in", Scheme: scheme})
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if rep.Result[kernels.StatCount] != want[kernels.StatCount] ||
			rep.Result[kernels.StatMin] != want[kernels.StatMin] ||
			rep.Result[kernels.StatMax] != want[kernels.StatMax] ||
			math.Abs(rep.Result[kernels.StatSum]-want[kernels.StatSum]) > 1e-6 {
			t.Errorf("%v: aggregate %v, want %v", scheme, rep.Result, want)
		}
		if rep.Stats.Elements != g.Len() {
			t.Errorf("%v: folded %d elements, want %d", scheme, rep.Stats.Elements, g.Len())
		}
	}
}

func TestReduceOffloadAvoidsBulkTraffic(t *testing.T) {
	// Large enough (4 MiB) that data movement, not job startup, dominates.
	g := workload.Terrain(1024, 512, 5)

	ts := newSystem(t, TS, g)
	tsRep, err := ts.Reduce(ReduceRequest{Op: "stats", Input: "in", Scheme: TS})
	if err != nil {
		t.Fatal(err)
	}
	das := newSystem(t, DAS, g)
	dasRep, err := das.Reduce(ReduceRequest{Op: "stats", Input: "in", Scheme: DAS})
	if err != nil {
		t.Fatal(err)
	}
	if !dasRep.Offloaded {
		t.Fatal("DAS did not offload a dependence-free reduction")
	}
	if dasRep.Decision == nil || !dasRep.Decision.Offload {
		t.Errorf("decision: %+v", dasRep.Decision)
	}
	// TS hauls the raster to the clients; the offloaded fold returns only
	// tiny partials.
	if tsRep.Traffic[metrics.ServerToClient] < g.SizeBytes() {
		t.Errorf("TS moved %d bytes to clients, want ≥ raster size", tsRep.Traffic[metrics.ServerToClient])
	}
	if dasRep.Traffic[metrics.ServerToClient] > 64*1024 {
		t.Errorf("offloaded reduction moved %d bytes to clients", dasRep.Traffic[metrics.ServerToClient])
	}
	if dasRep.ExecTime >= tsRep.ExecTime {
		t.Errorf("offloaded reduction %v not faster than TS %v", dasRep.ExecTime, tsRep.ExecTime)
	}
	// The classic active storage win: comfortably faster even with the
	// fixed startup cost both schemes share.
	if tsRep.ExecTime.Seconds()/dasRep.ExecTime.Seconds() < 1.3 {
		t.Errorf("reduction speedup only %.2fx", tsRep.ExecTime.Seconds()/dasRep.ExecTime.Seconds())
	}
}

func TestReduceHistogramAcrossSchemes(t *testing.T) {
	g := workload.Image(testW, testH, 3, 0.1)
	h := kernels.Histogram{Bins: 32, Lo: 0, Hi: 256}
	want := kernels.ReduceAll(h, g)
	for _, scheme := range []Scheme{TS, DAS} {
		s := newSystem(t, scheme, g)
		rep, err := s.Reduce(ReduceRequest{Op: "histogram", Input: "in", Scheme: scheme})
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		for i := range want {
			if rep.Result[i] != want[i] {
				t.Fatalf("%v: bin %d = %v, want %v", scheme, i, rep.Result[i], want[i])
			}
		}
	}
}

func TestReduceValidation(t *testing.T) {
	g := workload.Ramp(testW, testH)
	s := newSystem(t, TS, g)
	if _, err := s.Reduce(ReduceRequest{Op: "stats", Input: "nope", Scheme: TS}); err == nil {
		t.Error("unknown input accepted")
	}
	if _, err := s.Reduce(ReduceRequest{Op: "nope", Input: "in", Scheme: TS}); err == nil {
		t.Error("unknown reducer accepted")
	}
	if _, err := s.Reduce(ReduceRequest{Op: "stats", Input: "in", Scheme: Scheme(9)}); err == nil {
		t.Error("unknown scheme accepted")
	}
}

// reduceUnderFaults runs a NAS stats reduction of g, ingested under lay in
// strips of strip bytes, on a fresh platform of cfg with the given fault
// events armed (their times count from the reduction's start). It returns
// the report, the strips the client had to dispatch again, and how many
// processes were left parked.
func reduceUnderFaults(t *testing.T, cfg cluster.Config, g *grid.Grid, lay layout.Layout, strip int64, events ...fault.Event) (ReduceReport, int64, int, error) {
	t.Helper()
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.IngestGrid("in", g, lay, strip); err != nil {
		t.Fatal(err)
	}
	if err := s.Clu.InstallFaultPlan(fault.Plan{Events: events}); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Reduce(ReduceRequest{Op: "stats", Input: "in", Scheme: NAS})
	return rep, s.Clu.Counters.Get("recovery.exec_retries"), s.Clu.Eng.Live(), err
}

// checkStats holds a reduction to the sequential aggregate: count, min and
// max exactly, the sums up to the order partials were merged in.
func checkStats(t *testing.T, got, want []float64) {
	t.Helper()
	for i := range want {
		if got[i] == want[i] {
			continue
		}
		if (i == kernels.StatSum || i == kernels.StatSumSq) && math.Abs(got[i]-want[i]) <= 1e-9*math.Abs(want[i]) {
			continue
		}
		t.Errorf("aggregate[%d] = %v, want %v", i, got[i], want[i])
	}
}

// TestReduceSurvivesADownServer: with server 1 down before dispatch, its
// strips are folded by their replica holders and the reduction returns the
// sequential aggregate — no dispatcher waits on the dead server.
func TestReduceSurvivesADownServer(t *testing.T) {
	done := bufpool.Audit()
	defer func() {
		if n := done(); n != 0 {
			t.Errorf("%d pooled buffers outstanding", n)
		}
	}()
	g := workload.Terrain(testW, testH, 5)
	rep, _, live, err := reduceUnderFaults(t, smallConfig(), g, layout.NewGroupedReplicated(4, 4, 4), testStrip,
		fault.Event{At: 0, Kind: fault.Crash, Server: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkStats(t, rep.Result, kernels.ReduceAll(kernels.Stats{}, g))
	if rep.Stats.Elements != g.Len() || rep.Stats.Servers != 3 {
		t.Errorf("folded %d elements on %d servers, want %d on 3", rep.Stats.Elements, rep.Stats.Servers, g.Len())
	}
	if live != 0 {
		t.Errorf("%d processes still live after the reduction", live)
	}
}

// TestReduceSurvivesACrashMidFold crashes server 1 in the middle of its
// fold and restarts it: the request died with the old incarnation, so its
// strips are dispatched again, and the reduction still returns the
// sequential aggregate.
func TestReduceSurvivesACrashMidFold(t *testing.T) {
	done := bufpool.Audit()
	defer func() {
		if n := done(); n != 0 {
			t.Errorf("%d pooled buffers outstanding", n)
		}
	}()
	g := workload.Terrain(overlapW, overlapH, 5)
	cfg := smallConfig()
	cfg.ComputeNsPerElem *= 20 // fold-bound, so the crash lands inside a fold
	lay := layout.NewGroupedReplicated(4, 4, 4)
	// A healthy run with the fault paths armed times the fold.
	healthy, _, _, err := reduceUnderFaults(t, cfg, g, lay, overlapStrip,
		fault.Event{At: sim.Second, Kind: fault.Crash, Server: 1})
	if err != nil {
		t.Fatal(err)
	}
	startup := cfg.Startup
	crashAt := startup + (healthy.ExecTime-startup)/2
	rep, retries, live, err := reduceUnderFaults(t, cfg, g, lay, overlapStrip,
		fault.Event{At: crashAt, Kind: fault.Crash, Server: 1},
		fault.Event{At: crashAt + (healthy.ExecTime-startup)/4, Kind: fault.Restart, Server: 1})
	if err != nil {
		t.Fatal(err)
	}
	if retries == 0 {
		t.Fatal("no strip was dispatched again: the crash missed the fold, or a reply from before the restart was taken")
	}
	checkStats(t, rep.Result, kernels.ReduceAll(kernels.Stats{}, g))
	if rep.Stats.Elements != g.Len() {
		t.Errorf("folded %d elements, want %d", rep.Stats.Elements, g.Len())
	}
	if live != 0 {
		t.Errorf("%d processes still live after the reduction", live)
	}
}

// TestReduceWithoutALiveCopyFailsTyped: round-robin keeps no replicas, so
// with a server down the reduction cannot run, and says so with
// ErrNoLiveCopy instead of waiting on the dead server.
func TestReduceWithoutALiveCopyFailsTyped(t *testing.T) {
	g := workload.Terrain(testW, testH, 5)
	_, _, _, err := reduceUnderFaults(t, smallConfig(), g, layout.NewRoundRobin(4), testStrip,
		fault.Event{At: 0, Kind: fault.Crash, Server: 1})
	if !errors.Is(err, pfs.ErrNoLiveCopy) {
		t.Errorf("error %v, want ErrNoLiveCopy", err)
	}
}

// TestTSReduceLeavesNoMessageQueued: a TS reduction's partials reach the
// coordinator through its gather mailbox, and the transfer that charges
// their bytes delivers nothing, so no port holds an unread message after
// the run.
func TestTSReduceLeavesNoMessageQueued(t *testing.T) {
	s := newSystem(t, TS, workload.Terrain(testW, testH, 5))
	if _, err := s.Reduce(ReduceRequest{Op: "stats", Input: "in", Scheme: TS}); err != nil {
		t.Fatal(err)
	}
	if n := s.Clu.Net.Node(s.Clu.ComputeID(0)).Port("reduce-sink").Len(); n != 0 {
		t.Errorf("%d partials left queued on the coordinator", n)
	}
	if err := s.Clu.Net.CheckReplies(); err != nil {
		t.Error(err)
	}
}
