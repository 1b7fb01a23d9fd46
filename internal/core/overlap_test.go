package core

import (
	"runtime"
	"testing"

	"github.com/hpcio/das/internal/bufpool"
	"github.com/hpcio/das/internal/fault"
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/trace"
	"github.com/hpcio/das/internal/workload"
)

// A raster large enough for every server to walk several runs: 128 strips
// of two rows over four servers.
const (
	overlapW     = 256
	overlapH     = 256
	overlapStrip = 2 * overlapW * grid.ElemSize
)

// TestOffloadedStagesOverlap: a storage server reads one run ahead and
// writes one run behind, so an offloaded execution takes less than its
// stages laid end to end — and, as any schedule of the same work, no less
// than startup plus what its busiest resource had to do.
func TestOffloadedStagesOverlap(t *testing.T) {
	g := workload.Terrain(overlapW, overlapH, 5)
	want := kernels.Apply(kernels.FlowRouting{}, g)
	for _, tc := range []struct {
		scheme Scheme
		lay    layout.Layout
	}{
		{DAS, layout.NewGroupedReplicated(4, 8, 2)},
		{NAS, layout.NewGrouped(4, 8)},
	} {
		s, err := NewSystem(smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.IngestGrid("in", g, tc.lay, overlapStrip); err != nil {
			t.Fatal(err)
		}
		rep, err := s.Execute(Request{Op: "flow-routing", Input: "in", Output: "out", Scheme: tc.scheme})
		if err != nil {
			t.Fatal(err)
		}
		if got, err := s.FetchGrid("out"); err != nil || !got.Equal(want) {
			t.Fatalf("%v: output differs from the sequential reference (%v)", tc.scheme, err)
		}
		if !rep.Offloaded || rep.Stats.Strips <= int64(rep.Stats.Servers) {
			t.Fatalf("%v: not a multi-run offload: %+v", tc.scheme, rep.Stats)
		}
		ph, startup := rep.Stats.PhaseMax, s.Clu.Cfg.Startup
		serial := startup + ph.LocalRead + ph.Fetch + ph.Compute + ph.Write + ph.Forward
		bound := startup + rep.BusiestResource()
		if rep.ExecTime >= serial {
			t.Errorf("%v: exec %v is not below its stages end to end, %v: nothing overlapped (%+v)", tc.scheme, rep.ExecTime, serial, ph)
		}
		if rep.ExecTime < bound {
			t.Errorf("%v: exec %v beats startup + busiest resource, %v", tc.scheme, rep.ExecTime, bound)
		}
		s.Close()
	}
}

// TestCrashWithABandPrefetched crashes and restarts a server in the middle
// of one run's compute, when the next run's band is already assembled and
// waiting, with every pool scribbling over what is returned to it. The
// dead server's strips are dispatched again; the output is the reference
// byte for byte, every request is answered once (Execute's run checks the
// reply ledger), nothing stays parked, and Close returns every coroutine.
func TestCrashWithABandPrefetched(t *testing.T) {
	done := bufpool.Audit()
	defer func() {
		if n := done(); n != 0 {
			t.Errorf("%d pooled buffers outstanding", n)
		}
	}()
	baseline := runtime.NumGoroutine()
	g := workload.Terrain(overlapW, overlapH, 5)
	want := kernels.Apply(kernels.FlowRouting{}, g)
	req := Request{Op: "flow-routing", Input: "in", Output: "out", Scheme: DAS, DisablePrediction: true}

	// execute runs the request on a fresh platform — compute-bound, so
	// that bands wait for the kernel and not the kernel for bands — under
	// a crash of server 1 at crashAt on the platform's clock, and returns
	// the intervals server 1 recorded on a lane.
	execute := func(crashAt, downFor sim.Time) (*System, func(lane string) []trace.Event) {
		cfg := smallConfig()
		cfg.ComputeNsPerElem *= 20
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.IngestGrid("in", g, crashSurvivableLayout(4), overlapStrip); err != nil {
			t.Fatal(err)
		}
		at := crashAt - s.Clu.Eng.Now() // plan times count from the install
		if err := s.Clu.InstallFaultPlan(fault.Plan{Events: []fault.Event{
			{At: at, Kind: fault.Crash, Server: 1},
			{At: at + downFor, Kind: fault.Restart, Server: 1},
		}}); err != nil {
			t.Fatal(err)
		}
		rec := trace.New(0)
		s.Clu.Trace = rec
		if _, err := s.Execute(req); err != nil {
			t.Fatal(err)
		}
		return s, func(lane string) (evs []trace.Event) {
			for _, e := range rec.Events() {
				if e.Actor == "server-1/"+lane && e.Phase != "stall" {
					evs = append(evs, e)
				}
			}
			return evs
		}
	}

	// Aim at the middle of server 1's middle compute, on a run with the
	// fault paths armed but no fault inside it.
	healthy, lanes := execute(sim.Second, sim.Second)
	healthy.Close()
	computes := lanes("compute")
	if len(computes) < 4 {
		t.Fatalf("server 1 computed %d runs: too few to crash between two", len(computes))
	}
	mid := computes[len(computes)/2]
	crashAt := mid.At + mid.Dur/2

	s, lanes := execute(crashAt, mid.Dur)
	prefetched := false
	for _, rd := range lanes("read") {
		// Assembled after this compute began, done before the crash.
		prefetched = prefetched || (rd.At >= mid.At && rd.At+rd.Dur <= crashAt)
	}
	if !prefetched {
		t.Errorf("no band was prefetched and waiting on server 1 at the crash (%v)", crashAt)
	}
	got, err := s.FetchGrid("out")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Errorf("crashed run output differs from reference (max diff %g)", got.MaxAbsDiff(want))
	}
	if s.Clu.Counters.Get("recovery.exec_retries") == 0 {
		t.Error("the crash re-dispatched nothing")
	}
	if live := s.Clu.Eng.Live(); live != 0 {
		t.Errorf("%d processes still live after the run", live)
	}
	s.Close()
	// Not "!=": tests before this one leave platforms open, and a goroutine
	// of theirs may end meanwhile; a platform left open here is dozens.
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("%d goroutines after Close, %d before the platforms were built", n, baseline)
	}
}
