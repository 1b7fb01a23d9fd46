package core

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"github.com/hpcio/das/internal/bufpool"
	"github.com/hpcio/das/internal/fault"
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/pfs"
	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/trace"
	"github.com/hpcio/das/internal/workload"
)

// A raster whose TS blocks are several stripes long: 64 strips of eight
// rows over four servers, sixteen strips — four stripes — a worker.
const (
	tsW     = 256
	tsH     = 512
	tsStrip = 8 * tsW * grid.ElemSize
)

// TestSingleStripeTakesTheSerialSteps: a TS worker whose block is at most
// one stripe has nothing to overlap, and walks it as the serial worker
// did: the same events and the same time to the nanosecond. The counts and
// times were recorded from the serial worker (commit 3126530) before it was
// replaced: a block of exactly one stripe and a block shorter than one.
// The third row, one stripe of a replicated layout, has a write-back that
// forwards: its events and time follow pfs's forwarding order (one process
// per holder, pfs.Server.Forward) and were derived from it.
func TestSingleStripeTakesTheSerialSteps(t *testing.T) {
	for _, tc := range []struct {
		name         string
		h            int
		lay          layout.Layout
		serialEvents uint64
		serialExec   sim.Time
	}{
		{"one stripe", 16, layout.NewRoundRobin(4), 465, 21730802},
		{"part of a stripe", 12, layout.NewRoundRobin(4), 413, 21683418},
		{"one replicated stripe", 16, crashSurvivableLayout(4), 526, 22222066},
	} {
		g := workload.Terrain(testW, tc.h, 5)
		s := ingested(t, g, tc.lay)
		before := s.Clu.Eng.Events()
		rep, err := s.Execute(Request{Op: "flow-routing", Input: "in", Output: "out", Scheme: TS})
		if err != nil {
			t.Fatal(err)
		}
		if events := s.Clu.Eng.Events() - before; events != tc.serialEvents || rep.ExecTime != tc.serialExec {
			t.Errorf("%s: %d events, %dns; the serial worker took %d events, %dns",
				tc.name, events, int64(rep.ExecTime), tc.serialEvents, int64(tc.serialExec))
		}
		if rep.Stats.PhaseMax.Stall != 0 {
			t.Errorf("%s: a single stripe stalled for %v", tc.name, rep.Stats.PhaseMax.Stall)
		}
		if got, err := s.FetchGrid("out"); err != nil || !got.Equal(kernels.Apply(kernels.FlowRouting{}, g)) {
			t.Errorf("%s: output differs from the sequential reference (%v)", tc.name, err)
		}
		s.Close()
	}
}

// TestTSReadsEveryByteOnce: a TS worker walking several stripes reads each
// input byte once — a stripe's band is lent the halo rows the stripe
// before it read, not sent them again — so the disks read what the serial
// worker's one read of its block did (recorded from commit 3126530), and
// the client links carry no more than the headers of the extra requests.
// The stages overlap: the run takes less than its stages laid end to end,
// and no less than startup plus what its busiest resource did.
func TestTSReadsEveryByteOnce(t *testing.T) {
	const (
		serialC2S      = 1052672
		serialS2C      = 1065008
		serialDiskRead = 1060912
		header         = 128 // a pfs request's or reply's header bytes
	)
	g := workload.Terrain(tsW, tsH, 5)
	s, err := NewSystem(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.IngestGrid("in", g, layout.NewRoundRobin(4), tsStrip); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Execute(Request{Op: "flow-routing", Input: "in", Output: "out", Scheme: TS})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s.FetchGrid("out"); err != nil || !got.Equal(kernels.Apply(kernels.FlowRouting{}, g)) {
		t.Fatalf("output differs from the sequential reference (%v)", err)
	}
	tr := rep.Traffic
	if tr[metrics.DiskRead] != serialDiskRead || tr[metrics.DiskWrite] != g.SizeBytes() || tr[metrics.ServerToServer] != 0 {
		t.Errorf("disks read %d and wrote %d bytes, servers exchanged %d; the serial worker: %d, %d, 0",
			tr[metrics.DiskRead], tr[metrics.DiskWrite], tr[metrics.ServerToServer], serialDiskRead, g.SizeBytes())
	}
	// At most a read and a write to each server per stripe and worker.
	const maxExtra = 4 * 4 * 4 * 2 * header
	up, down := tr[metrics.ClientToServer]-serialC2S, tr[metrics.ServerToClient]-serialS2C
	if up != down || up <= 0 || up%header != 0 || up > maxExtra {
		t.Errorf("client links carry %d and %d bytes more than the serial worker's: not the headers of extra requests", up, down)
	}
	ph, startup := rep.Stats.PhaseMax, s.Clu.Cfg.Startup
	serial := startup + ph.Fetch + ph.Compute + ph.Write
	bound := startup + rep.BusiestResource()
	if ph.Stall == 0 || rep.ExecTime >= serial {
		t.Errorf("exec %v is not below its stages end to end, %v: nothing overlapped (%+v)", rep.ExecTime, serial, ph)
	}
	if rep.ExecTime < bound {
		t.Errorf("exec %v beats startup + busiest resource, %v", rep.ExecTime, bound)
	}
}

// tsLanes returns the intervals TS worker 0 recorded on a lane, stalls
// left out.
func tsLanes(rec *trace.Recorder, lane string) (evs []trace.Event) {
	for _, e := range rec.Events() {
		if e.Actor == "ts-worker-0/"+lane && e.Phase != "stall" {
			evs = append(evs, e)
		}
	}
	return evs
}

// TestTSCrashWithAStripePrefetched crashes and restarts a server in the
// middle of a TS worker's compute, with the worker's next stripe already
// read and waiting, and every pool scribbling over what is returned to
// it. Reads fail over to replicas and writes wait the restart out; the
// output is the reference byte for byte, no pooled buffer is left out,
// nothing stays parked, and Close returns every coroutine. A server that
// never comes back fails the run — a write to it runs out of retries while
// the worker computes its next stripe — and that stripe's output, whose
// write never starts, goes back to the pool all the same.
func TestTSCrashWithAStripePrefetched(t *testing.T) {
	done := bufpool.Audit()
	defer func() {
		if n := done(); n != 0 {
			t.Errorf("%d pooled buffers outstanding", n)
		}
	}()
	g := workload.Terrain(tsW, tsH, 5)
	want := kernels.Apply(kernels.FlowRouting{}, g)
	baseline := runtime.NumGoroutine()

	// execute runs TS on a fresh compute-bound platform — stripes wait for
	// the kernel, not the kernel for stripes — under a crash of server 1 at
	// crashAt on the platform's clock and, unless downFor is negative, its
	// restart downFor later, and returns what it recorded.
	execute := func(crashAt, downFor sim.Time) (*System, *trace.Recorder, error) {
		cfg := smallConfig()
		cfg.ComputeNsPerElem *= 20
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.IngestGrid("in", g, crashSurvivableLayout(4), tsStrip); err != nil {
			t.Fatal(err)
		}
		at := crashAt - s.Clu.Eng.Now() // plan times count from the install
		plan := fault.Plan{Events: []fault.Event{{At: at, Kind: fault.Crash, Server: 1}}}
		if downFor >= 0 {
			plan.Events = append(plan.Events, fault.Event{At: at + downFor, Kind: fault.Restart, Server: 1})
		}
		if err := s.Clu.InstallFaultPlan(plan); err != nil {
			t.Fatal(err)
		}
		rec := trace.New(0)
		s.Clu.Trace = rec
		_, err = s.Execute(Request{Op: "flow-routing", Input: "in", Output: "out", Scheme: TS})
		return s, rec, err
	}

	// Aim at the middle of worker 0's middle compute, on a run with the
	// fault paths armed but no fault inside it.
	healthy, rec, err := execute(sim.Second, sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	healthy.Close()
	computes := tsLanes(rec, "compute")
	if len(computes) != 4 {
		t.Fatalf("worker 0 computed %d stripes, want 4", len(computes))
	}
	mid := computes[len(computes)/2]
	crashAt := mid.At + mid.Dur/2

	dead, _, err := execute(crashAt, -1)
	if !errors.Is(err, pfs.ErrServerDown) {
		t.Errorf("a run writing to a server that never restarts returned %v, want %v", err, pfs.ErrServerDown)
	}
	dead.Close()

	s, rec, err := execute(crashAt, mid.Dur)
	if err != nil {
		t.Fatal(err)
	}
	prefetched := false
	for _, rd := range tsLanes(rec, "read") {
		// Read after this compute began, done before the crash.
		prefetched = prefetched || (rd.At >= mid.At && rd.At+rd.Dur <= crashAt)
	}
	if !prefetched {
		t.Errorf("no stripe was prefetched and waiting on worker 0 at the crash (%v)", crashAt)
	}
	got, err := s.FetchGrid("out")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Errorf("crashed run output differs from reference (max diff %g)", got.MaxAbsDiff(want))
	}
	if s.Clu.Counters.Get("recovery.retries")+s.Clu.Counters.Get("recovery.failover_reads") == 0 {
		t.Error("the crash disturbed no request")
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

// TestCarriedHaloKeepsWhatItWasLent: the rows of a strip one stripe read
// are lent again, as halo, to the next stripe's band, which then waits for
// the compute before it. A foreign write may replace the strip meanwhile.
// Stored strips are immutable and both bands were lent the slice stored
// then (pfs's TestLentClientReadOutlivesTheStrips), so both kernels
// compute on what was read. The strip replaced here is the last of worker
// 0's first stripe — no other worker's halo, no replica — so the whole
// output is the old raster's, while the file reads the new bytes.
func TestCarriedHaloKeepsWhatItWasLent(t *testing.T) {
	const victim = 3 // the last strip of worker 0's first stripe
	lay := layout.NewRoundRobin(4)
	cfg := smallConfig()
	cfg.ComputeNsPerElem *= 100 // compute-bound: a prefetched band waits milliseconds
	g := workload.Terrain(tsW, tsH, 5)
	fresh := bytes.Repeat([]byte{0x40}, tsStrip)

	// worker0 runs TS, with the foreign write issued at writeAt (never, when
	// negative), and returns worker 0's second read and second compute, and
	// when the write was issued and acknowledged.
	worker0 := func(writeAt sim.Time) (s *System, read, compute trace.Event, sent, acked sim.Time) {
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.IngestGrid("in", g, lay, tsStrip); err != nil {
			t.Fatal(err)
		}
		rec := trace.New(0)
		s.Clu.Trace = rec
		if writeAt >= 0 {
			s.Clu.Eng.Spawn("foreign-write", func(p *sim.Proc) {
				p.Sleep(writeAt - p.Now())
				sent = p.Now()
				if err := s.FS.WriteStripTo(p, s.Clu.ComputeID(1), lay.Primary(victim), "in", victim, fresh, true); err != nil {
					t.Error(err)
				}
				acked = p.Now()
			})
		}
		if _, err := s.Execute(Request{Op: "flow-routing", Input: "in", Output: "out", Scheme: TS}); err != nil {
			t.Fatal(err)
		}
		reads, computes := tsLanes(rec, "read"), tsLanes(rec, "compute")
		if len(reads) != 4 || len(computes) != 4 {
			t.Fatalf("worker 0 recorded %d reads and %d computes, want 4 stripes", len(reads), len(computes))
		}
		return s, reads[1], computes[1], sent, acked
	}

	s, read, compute, _, _ := worker0(-1)
	s.Close()
	if compute.At-(read.At+read.Dur) < sim.Millisecond {
		t.Fatalf("the second band waits only %v for its compute: no room for a write", compute.At-(read.At+read.Dur))
	}
	s, read, compute, sent, acked := worker0(read.At + read.Dur + 100*sim.Microsecond)
	defer s.Close()
	if sent < read.At+read.Dur || acked > compute.At {
		t.Fatalf("the write [%v, %v] missed the window between prefetch end %v and compute start %v",
			sent, acked, read.At+read.Dur, compute.At)
	}
	if got, err := s.FetchGrid("out"); err != nil || !got.Equal(kernels.Apply(kernels.FlowRouting{}, g)) {
		t.Errorf("the worker did not compute on the bytes its bands were lent (%v)", err)
	}
	in, err := s.FetchGrid("in")
	if err != nil {
		t.Fatal(err)
	}
	perStrip := int64(tsStrip / grid.ElemSize)
	if !bytes.Equal(grid.FloatsToBytes(in.Data[victim*perStrip:(victim+1)*perStrip]), fresh) {
		t.Error("the foreign write did not replace the strip")
	}
}
