package pipeline

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/hpcio/das/internal/active"
	"github.com/hpcio/das/internal/cache"
	"github.com/hpcio/das/internal/fault"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/pfs"
	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/trace"
)

// batch is the input fetches one server sent at one instant: when they
// left and when the last came back.
type batch struct{ sent, back sim.Time }

// watchFetches traces rig and attaches a halo cache whose latency sink
// sees every completed input fetch, and returns the fetches each server
// sent, grouped into batches by the instant they left, in that order. A
// one-byte budget keeps nothing, so the cache never hits and every
// dependent range is fetched. Band pulls are not fetches: they pass no
// cache.
func watchFetches(t *testing.T, rig *testRig) (rec *trace.Recorder, batches func(srv int) []batch) {
	t.Helper()
	rec = trace.New(0)
	rig.clu.Trace = rec
	mgr, err := cache.NewManager(rig.clu.Eng, rig.fs.Servers(), cache.Config{BudgetBytes: 1}, nil, rig.clu.Counters)
	if err != nil {
		t.Fatal(err)
	}
	sent := make([][]batch, rig.fs.Servers())
	mgr.SetLatencySink(func(srv int, lat sim.Time) {
		now := rig.clu.Eng.Now()
		i := slices.IndexFunc(sent[srv], func(b batch) bool { return b.sent == now-lat })
		if i < 0 {
			sent[srv] = append(sent[srv], batch{sent: now - lat})
			i = len(sent[srv]) - 1
		}
		sent[srv][i].back = max(sent[srv][i].back, now)
	})
	rig.svc.SetCache(mgr)
	return rec, func(srv int) []batch {
		out := slices.Clone(sent[srv])
		slices.SortFunc(out, func(a, b batch) int { return int(a.sent - b.sent) })
		return out
	}
}

// events returns what a server traced on one of its lanes, of one phase,
// and with a note that starts with prefix.
func events(rec *trace.Recorder, srv *pfs.Server, lane, phase, prefix string) []trace.Event {
	var evs []trace.Event
	for _, e := range rec.Events() {
		if e.Actor == active.Lane(srv, lane) && e.Phase == phase && strings.HasPrefix(e.Note, prefix) {
			evs = append(evs, e)
		}
	}
	return evs
}

// wantLed checks when a walk sent its fetches, given its local reads —
// one a run, at the run's assembly start — and the batches its server
// sent, of which it counts those from the first read on: run 0's and run
// 1's as their local reads end, and from run 1 on, run i+1's as run i's
// assembly starts, the run loop's lead.
func wantLed(t *testing.T, walk string, reads []trace.Event, batches []batch) {
	t.Helper()
	if len(reads) < 4 {
		t.Fatalf("%s walked %d runs, want at least 4", walk, len(reads))
	}
	want := []sim.Time{reads[0].At + reads[0].Dur, reads[1].At + reads[1].Dur}
	for i := 1; i+1 < len(reads); i++ {
		want = append(want, reads[i].At)
	}
	slices.Sort(want)
	var sent []sim.Time
	for _, b := range batches {
		if b.sent >= reads[0].At {
			sent = append(sent, b.sent)
		}
	}
	if !slices.Equal(sent, want) {
		t.Errorf("%s sent its runs' fetches at %v, want %v", walk, sent, want)
	}
}

// TestInputRoundsLead: a pipeline round that reads the input walks the
// servers' run loop with exec's lead, and one that pulls its parents'
// values has nothing to lead. chain3 fused two deep on round-robin
// one-row strips: round 0 reads the input two rows past each run, eight
// one-strip runs a server, each fetching from other servers, and leads
// its fetches; round 1 pulls the fused stage's values, each run's pull
// leaving as its own assembly starts, with the previous run's compute.
// Then server 2 crashes, and restarts, while server 1 has a run's fetches
// out to it a run ahead. Server 2's reply is lost, so its strips are
// caught up from the input — on server 2, their only holder — and that
// catch-up round leads as round 0 did. The output is the reference, every
// request is answered once, no pooled buffer is kept and nothing stays
// live.
func TestInputRoundsLead(t *testing.T) {
	audited(t)
	d := chain3()
	// execute runs d fused two deep with server 2 crashing at crashAt
	// and restarting downFor later, and checks what every run must hold.
	execute := func(crashAt, downFor sim.Time) (*testRig, RunResult, *trace.Recorder, func(int) []batch) {
		rig := newRig(t, layout.NewRoundRobin(4), testW, testH, testStrip)
		rig.createOut(t, "out")
		rec, batches := watchFetches(t, rig)
		at := crashAt - rig.clu.Eng.Now() // plan times count from the install
		if err := rig.clu.InstallFaultPlan(fault.Plan{Events: []fault.Event{
			{At: at, Kind: fault.Crash, Server: 2},
			{At: at + downFor, Kind: fault.Restart, Server: 2},
		}}); err != nil {
			t.Fatal(err)
		}
		res, err := rig.pipelineAt(t, d, "in", "out", 2)
		if err != nil {
			t.Fatal(err)
		}
		want, err := kernels.ApplyDAG(d, kernels.Default(), kernels.DefaultCombiners(), rig.g)
		if err != nil {
			t.Fatal(err)
		}
		if got := rig.fetch(t, "out"); !got.Equal(want) {
			t.Error("output differs from the sequential DAG reference")
		}
		if err := rig.clu.Net.CheckReplies(); err != nil {
			t.Error(err)
		}
		if live := rig.clu.Eng.Live(); live != 0 {
			t.Errorf("%d processes still live after the run", live)
		}
		if res.Rounds != 2 || res.FetchBytes == 0 || res.ExchangeBytes == 0 || res.CacheHits != 0 {
			t.Fatalf("rounds=%d fetch=%d exchange=%d hits=%d, want a fetching round 0 and a pulling round 1",
				res.Rounds, res.FetchBytes, res.ExchangeBytes, res.CacheHits)
		}
		return rig, res, rec, batches
	}

	// A run with the fault paths armed but no fault inside it.
	rig, _, rec, batches := execute(sim.Second, sim.Second)
	rig.clu.Eng.Shutdown()
	for i := 0; i < rig.fs.Servers(); i++ {
		srv := rig.fs.Server(i)
		wantLed(t, fmt.Sprintf("round 0 on server %d", i), events(rec, srv, "read", "local-read", ""), batches(i))

		pulls := events(rec, srv, "read", "exchange", "")
		computes := events(rec, srv, "compute", "compute", "s2 over")
		if len(pulls) != len(computes) || len(pulls) < 4 {
			t.Fatalf("server %d traced %d pulls and %d computes in round 1, want one of each a run, at least 4",
				i, len(pulls), len(computes))
		}
		for r := 1; r < len(pulls); r++ {
			if pulls[r].At != computes[r-1].At {
				t.Errorf("server %d pulled run %d's values at %v, not as its assembly started at %v",
					i, r, pulls[r].At, computes[r-1].At)
			}
		}
	}

	// Crash server 2 halfway through the round trip of the fetches server
	// 1 sent it ahead of its fourth run, as its third run's assembly
	// started.
	reads := events(rec, rig.fs.Server(1), "read", "local-read", "")
	sent := batches(1)
	i := slices.IndexFunc(sent, func(b batch) bool { return b.sent == reads[2].At })
	if i < 0 {
		t.Fatalf("server 1 sent no fetches as its third run's assembly started (%v): %+v", reads[2].At, sent)
	}
	led := sent[i]
	const downFor = 5 * sim.Millisecond
	crashAt := led.sent + (led.back-led.sent)/2
	rig, res, rec, batches := execute(crashAt, downFor)
	defer rig.clu.Eng.Shutdown()
	if got := events(rec, rig.fs.Server(1), "read", "local-read", ""); len(got) < 3 || got[2].At != led.sent {
		t.Fatalf("the crashed run's third assembly on server 1 did not start at %v as the healthy one's did", led.sent)
	}
	srv := rig.fs.Server(2)
	catchUps := events(rec, srv, "compute", "compute", "catch-up ")
	var caughtUp []trace.Event // the catch-up runs' local reads: after the restart
	for _, e := range events(rec, srv, "read", "local-read", "") {
		if e.At >= crashAt+downFor {
			caughtUp = append(caughtUp, e)
		}
	}
	if res.CatchUps == 0 || len(caughtUp) != len(catchUps) {
		t.Fatalf("%d strips caught up; server 2 read %d runs after its restart and computed %d catch-ups",
			res.CatchUps, len(caughtUp), len(catchUps))
	}
	wantLed(t, "the catch-up on server 2", caughtUp, batches(2))
}
