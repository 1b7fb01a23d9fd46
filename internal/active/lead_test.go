package active

import (
	"errors"
	"slices"
	"testing"

	"github.com/hpcio/das/internal/bufpool"
	"github.com/hpcio/das/internal/cache"
	"github.com/hpcio/das/internal/fault"
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/pfs"
	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/trace"
)

// batch is the dependent-strip fetches one server sent at one instant,
// and when the last of them came back.
type batch struct {
	sent, back sim.Time
	n          int
}

// watchFetches traces rig and attaches a halo cache whose latency sink
// sees every completed fetch, and returns the fetches each server sent,
// grouped into batches by the instant they left, in that order. A
// one-byte budget keeps nothing, so the cache never hits and every
// dependent range is fetched.
func watchFetches(t *testing.T, rig *testRig) (rec *trace.Recorder, batches func(srv int) []batch) {
	t.Helper()
	rec = trace.New(0)
	rig.clu.Trace = rec
	servers := rig.fs.Servers()
	mgr, err := cache.NewManager(rig.clu.Eng, servers, cache.Config{BudgetBytes: 1}, nil, rig.clu.Counters)
	if err != nil {
		t.Fatal(err)
	}
	done := make([]map[sim.Time]*batch, servers)
	for i := range done {
		done[i] = map[sim.Time]*batch{}
	}
	mgr.SetLatencySink(func(srv int, lat sim.Time) {
		now := rig.clu.Eng.Now()
		b := done[srv][now-lat]
		if b == nil {
			b = &batch{sent: now - lat}
			done[srv][now-lat] = b
		}
		b.back, b.n = max(b.back, now), b.n+1
	})
	rig.svc.SetCache(mgr)
	return rec, func(srv int) []batch {
		var out []batch
		for _, b := range done[srv] {
			out = append(out, *b)
		}
		slices.SortFunc(out, func(a, b batch) int { return int(a.sent - b.sent) })
		return out
	}
}

// lane returns the intervals of one phase a server recorded on a lane.
func lane(rec *trace.Recorder, srv *pfs.Server, name, phase string) []trace.Event {
	var evs []trace.Event
	for _, e := range rec.Events() {
		if e.Actor == Lane(srv, name) && e.Phase == phase {
			evs = append(evs, e)
		}
	}
	return evs
}

// TestFetchesLeadByOneRun: a NAS server walking several runs sends run
// i+1's dependent-strip fetches when it starts assembling run i, for
// every i ≥ 1 — never earlier — while run 0's and run 1's leave with
// their own assemblies, after the local read, as they always did. So two
// runs' fetches are out at once, and never three. Round-robin one-row
// strips make every run one strip, eight a server, and every strip its
// dependence reaches another server's.
func TestFetchesLeadByOneRun(t *testing.T) {
	for _, mode := range []FetchMode{FetchWholeStrips, FetchRows} {
		rig := newRig(t, layout.NewRoundRobin(4), testW, testH, testStrip)
		rig.createOut(t, "out")
		rec, batches := watchFetches(t, rig)
		var stats ExecStats
		rig.run(t, func(p *sim.Proc) (err error) {
			stats, err = NewClient(rig.fs, rig.clu.ComputeID(0)).Exec(p, "flow-routing", "in", "out", mode)
			return err
		})
		if got := rig.fetch(t, "out"); !got.Equal(kernels.Apply(kernels.FlowRouting{}, rig.g)) {
			t.Fatalf("%v: output differs from the sequential reference", mode)
		}
		if stats.CacheHits != 0 || stats.RemoteFetches == 0 {
			t.Fatalf("%v: %d fetches, %d cache hits; want fetches only", mode, stats.RemoteFetches, stats.CacheHits)
		}
		for srv := 0; srv < rig.fs.Servers(); srv++ {
			reads := lane(rec, rig.fs.Server(srv), "read", "local-read") // one a run, at its assembly's start
			if len(reads) < 3 {
				t.Fatalf("%v: server %d walked %d runs, want at least 3", mode, srv, len(reads))
			}
			want := []sim.Time{reads[0].At + reads[0].Dur, reads[1].At + reads[1].Dur}
			for i := 1; i+1 < len(reads); i++ {
				want = append(want, reads[i].At)
			}
			slices.Sort(want)
			got := batches(srv)
			var sent []sim.Time
			for _, b := range got {
				sent = append(sent, b.sent)
			}
			if !slices.Equal(sent, want) {
				t.Errorf("%v: server %d sent its runs' fetches at %v, want %v", mode, srv, sent, want)
			}
			// Batches out at once, counted when each leaves.
			most := 0
			for _, b := range got {
				out := 0
				for _, o := range got {
					if o.sent <= b.sent && b.sent < o.back {
						out++
					}
				}
				most = max(most, out)
			}
			if most != 2 {
				t.Errorf("%v: server %d had at most %d runs' fetches out at once, want 2", mode, srv, most)
			}
		}
	}
}

// TestTwoRunWalkTakesTheParentSteps: a server with two runs has no run to
// lead — the second's assembly starts with the first's compute, and the
// lead starts at the second — so it sends every fetch as it did before
// fetches led: the same events and the same time to the nanosecond. A
// walk of one run is TestSingleRunTakesTheSerialSteps. The counts and
// times were recorded on this rig (8 KiB strips, two a server) from the
// walk before the lead.
func TestTwoRunWalkTakesTheParentSteps(t *testing.T) {
	for _, tc := range []struct {
		mode   FetchMode
		events uint64
		exec   sim.Time
	}{
		{FetchWholeStrips, 273, 2890033},
		{FetchRows, 272, 2148411},
	} {
		rig := newRig(t, layout.NewRoundRobin(4), 64, 128, 8192)
		rig.createOut(t, "out")
		before := rig.clu.Eng.Events()
		var took sim.Time
		rig.run(t, func(p *sim.Proc) error {
			t0 := p.Now()
			_, err := NewClient(rig.fs, rig.clu.ComputeID(0)).Exec(p, "flow-routing", "in", "out", tc.mode)
			took = p.Now() - t0
			return err
		})
		if events := rig.clu.Eng.Events() - before; events != tc.events || took != tc.exec {
			t.Errorf("%v: %d events, %dns; before the lead %d events, %dns",
				tc.mode, events, int64(took), tc.events, int64(tc.exec))
		}
		if got := rig.fetch(t, "out"); !got.Equal(kernels.Apply(kernels.FlowRouting{}, rig.g)) {
			t.Errorf("%v: output differs from the sequential reference", tc.mode)
		}
	}
}

// TestCrashWithFetchesLed crashes a server, and restarts it, while server
// 1 has a run's fetches out a run ahead of its assembly: the owner they
// went to, whose copies fail over to their replicas, or server 1 itself,
// whose walk then fails with them out and joins them before its one
// reply. Each way the crashed server's strips are dispatched again and
// the output is the reference, every request is answered once, nothing
// stays parked, and no pooled buffer is kept. Strip s is on servers s and
// s+1 mod 4, so server 1's runs fetch from server 2 alone.
func TestCrashWithFetchesLed(t *testing.T) {
	lay := layout.NewReplicatedRoundRobin(4, 2)
	for _, tc := range []struct {
		name    string
		crashed int
	}{
		{"owner", 2},
		{"self", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			done := bufpool.Audit()
			defer func() {
				if n := done(); n != 0 {
					t.Errorf("%d pooled buffers outstanding", n)
				}
			}()
			// execute runs the offload under a crash of tc.crashed at
			// crashAt, restarting it downFor later, and returns the rig,
			// server 1's local reads and the batches of fetches it sent.
			execute := func(crashAt, downFor sim.Time) (*testRig, []trace.Event, []batch) {
				rig := newRig(t, lay, testW, testH, testStrip)
				rig.createOut(t, "out")
				rec, batches := watchFetches(t, rig)
				at := crashAt - rig.clu.Eng.Now() // plan times count from the install
				if err := rig.clu.InstallFaultPlan(fault.Plan{Events: []fault.Event{
					{At: at, Kind: fault.Crash, Server: tc.crashed},
					{At: at + downFor, Kind: fault.Restart, Server: tc.crashed},
				}}); err != nil {
					t.Fatal(err)
				}
				rig.run(t, func(p *sim.Proc) error {
					_, err := NewClient(rig.fs, rig.clu.ComputeID(0)).Exec(p, "flow-routing", "in", "out", FetchWholeStrips)
					return err
				})
				return rig, lane(rec, rig.fs.Server(1), "read", "local-read"), batches(1)
			}

			// Aim at the middle of the fetches server 1 sends ahead of its
			// fourth run, on a run with the fault paths armed but no fault
			// inside it.
			_, reads, sent := execute(sim.Second, sim.Second)
			if len(reads) < 4 {
				t.Fatalf("server 1 walked %d runs, want at least 4", len(reads))
			}
			i := slices.IndexFunc(sent, func(b batch) bool { return b.sent == reads[2].At })
			if i < 0 {
				t.Fatalf("server 1 sent no fetches as its third run's assembly started (%v): %+v", reads[2].At, sent)
			}
			led := sent[i]
			crashAt := led.sent + (led.back-led.sent)/2

			rig, crashedReads, _ := execute(crashAt, 5*sim.Millisecond)
			if len(crashedReads) < 3 || crashedReads[2].At != led.sent {
				t.Fatalf("the crashed run's third assembly did not start at %v as the healthy one's did", led.sent)
			}
			if got := rig.fetch(t, "out"); !got.Equal(kernels.Apply(kernels.FlowRouting{}, rig.g)) {
				t.Error("crashed run output differs from the sequential reference")
			}
			if rig.clu.Counters.Get("recovery.exec_retries") == 0 {
				t.Error("the crash re-dispatched nothing")
			}
			if err := rig.clu.Net.CheckReplies(); err != nil {
				t.Error(err)
			}
			if live := rig.clu.Eng.Live(); live != 0 {
				t.Errorf("%d processes still live after the run", live)
			}
		})
	}
}

// TestDrainJoinsLedFetches: a walk that fails with a run's fetches sent
// ahead and still out answers only once they are back — Drain waits for
// them, as for forwards — and returns the walk's error. None of them is
// tallied: a run's fetches count when its band takes them.
func TestDrainJoinsLedFetches(t *testing.T) {
	rig := newRig(t, layout.NewRoundRobin(4), testW, testH, testStrip)
	rig.createOut(t, "out")
	_, batches := watchFetches(t, rig)
	in, _ := rig.fs.Meta("in")
	out, _ := rig.fs.Meta("out")
	var tally Tally
	st := NewStages(rig.fs, rig.svc.cache, rig.fs.Server(0), in, out, FetchWholeStrips, testW, HaloStrips(in, testW), &tally)
	failed := errors.New("walk failed")
	var drained error
	var sent, answered sim.Time
	rig.run(t, func(p *sim.Proc) error {
		// Strip 4's band, a row of halo each side: strips 3 and 5 are
		// remote.
		sent = p.Now()
		st.Lead(p, StripRuns(in, []int64{4})[0])
		drained = st.Drain(p, failed)
		answered = p.Now()
		return nil
	})
	got := batches(0)
	if len(got) != 1 || got[0].n != 2 || got[0].sent != sent {
		t.Fatalf("the lead sent %+v, want one batch of 2 fetches at %v", got, sent)
	}
	if answered < got[0].back {
		t.Errorf("Drain returned at %v, before the led fetches were back at %v", answered, got[0].back)
	}
	if !errors.Is(drained, failed) {
		t.Errorf("Drain returned %v, want the walk's error", drained)
	}
	if tally.RemoteFetches != 0 || tally.RemoteBytes != 0 || tally.Phases != (Phases{}) {
		t.Errorf("fetches no band took were tallied: %+v", tally)
	}
}

// TestLedRunOutlivesAMigration moves a strip onto or off server 0 between
// the lead of strip 4's run and its assembly, the way a live restripe
// copies a strip to its new holder and retires the old copy. Strip s is on
// servers s and s+1 mod 4, so when the lead splits the run's band, strips
// 3 and 4 are local and strip 5 is fetched. A strip gained in the window
// stays fetched, not read twice; a strip lost in the window is fetched at
// the assembly, leaving no hole. Either way the band reads the input, the
// fetches are tallied once each, and nothing is left for Drain.
func TestLedRunOutlivesAMigration(t *testing.T) {
	for _, tc := range []struct {
		name    string
		migrate func(p *sim.Proc, rig *testRig) error
		fetches int64
	}{
		{"onto", func(p *sim.Proc, rig *testRig) error {
			return rig.fs.MigrateStrip(p, rig.clu.ComputeID(0), 1, "in", 5, []int{0})
		}, 1},
		{"off", func(p *sim.Proc, rig *testRig) error {
			rig.fs.Server(0).Drop("in", 3)
			return nil
		}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rig := newRig(t, layout.NewReplicatedRoundRobin(4, 2), testW, testH, testStrip)
			rig.createOut(t, "out")
			in, _ := rig.fs.Meta("in")
			out, _ := rig.fs.Meta("out")
			srv := rig.fs.Server(0)
			var tally Tally
			st := NewStages(rig.fs, nil, srv, in, out, FetchWholeStrips, testW, HaloStrips(in, testW), &tally)
			run := StripRuns(in, []int64{4})[0]
			held := func() []bool { return []bool{srv.Holds("in", 3), srv.Holds("in", 4), srv.Holds("in", 5)} }
			var before, after []bool
			var band *grid.Band
			var drained error
			rig.run(t, func(p *sim.Proc) error {
				before = held()
				st.Lead(p, run)
				if err := tc.migrate(p, rig); err != nil {
					return err
				}
				after = held()
				var err error
				if band, err = st.Assemble(p, run); err != nil {
					return err
				}
				drained = st.Drain(p, nil)
				return nil
			})
			defer band.Release()
			if !slices.Equal(before, []bool{true, true, false}) || slices.Equal(after, before) {
				t.Fatalf("server 0 held strips 3-5 %v at the lead and %v at the assembly; want a move between", before, after)
			}
			lo, hi := grid.HaloRange(run.Lo/in.ElemSize, run.Hi/in.ElemSize, testW, in.Size/in.ElemSize)
			for i := lo; i < hi; i++ {
				if !band.Contains(i) {
					t.Fatalf("the band has no element %d", i)
				}
				if band.At(i) != rig.g.Data[i] {
					t.Fatalf("element %d reads %v, want %v", i, band.At(i), rig.g.Data[i])
				}
			}
			if tally.RemoteFetches != tc.fetches || tally.RemoteBytes != tc.fetches*testStrip {
				t.Errorf("%d fetches of %d bytes tallied, want %d whole strips", tally.RemoteFetches, tally.RemoteBytes, tc.fetches)
			}
			if drained != nil || len(st.leads) != 0 {
				t.Errorf("Drain returned %v with %d leads left", drained, len(st.leads))
			}
		})
	}
}
