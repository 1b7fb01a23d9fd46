package pipeline

import (
	"slices"
	"strings"
	"testing"

	"github.com/hpcio/das/internal/active"
	"github.com/hpcio/das/internal/cache"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/pfs"
	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/trace"
)

// watchFetches traces rig and attaches a halo cache whose latency sink
// sees every completed input fetch, and returns the instants each server
// sent fetches at, ascending, once per instant. A one-byte budget keeps
// nothing, so the cache never hits and every dependent range is fetched.
// Band pulls are not fetches: they pass no cache.
func watchFetches(t *testing.T, rig *testRig) (rec *trace.Recorder, sent func(srv int) []sim.Time) {
	t.Helper()
	rec = trace.New(0)
	rig.clu.Trace = rec
	mgr, err := cache.NewManager(rig.clu.Eng, rig.fs.Servers(), cache.Config{BudgetBytes: 1}, nil, rig.clu.Counters)
	if err != nil {
		t.Fatal(err)
	}
	at := make([][]sim.Time, rig.fs.Servers())
	mgr.SetLatencySink(func(srv int, lat sim.Time) {
		at[srv] = append(at[srv], rig.clu.Eng.Now()-lat)
	})
	rig.svc.SetCache(mgr)
	return rec, func(srv int) []sim.Time {
		out := slices.Clone(at[srv])
		slices.Sort(out)
		return slices.Compact(out)
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

// TestRoundsSendNothingAhead: pipeline rounds walk the servers' run loop
// without the lead an exec has. chain3 fused two deep on round-robin
// one-row strips: round 0 reads the input two rows past each run, eight
// one-strip runs a server, each fetching from two other servers, and every
// run's fetches leave with its own assembly, once its local read is done.
// Round 1 pulls the fused stage's values, and each run's pull leaves when
// its own assembly starts, as the previous run's compute does.
func TestRoundsSendNothingAhead(t *testing.T) {
	audited(t)
	rig := newRig(t, layout.NewRoundRobin(4), testW, testH, testStrip)
	rig.createOut(t, "out")
	rec, sentAt := watchFetches(t, rig)
	d := chain3()
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
	if res.Rounds != 2 || res.FetchBytes == 0 || res.ExchangeBytes == 0 || res.CacheHits != 0 {
		t.Fatalf("rounds=%d fetch=%d exchange=%d hits=%d, want a fetching round 0 and a pulling round 1",
			res.Rounds, res.FetchBytes, res.ExchangeBytes, res.CacheHits)
	}
	for i := 0; i < rig.fs.Servers(); i++ {
		srv := rig.fs.Server(i)
		reads := events(rec, srv, "read", "local-read", "") // round 0's, one a run at its assembly's start
		if len(reads) < 4 {
			t.Fatalf("server %d walked %d runs in round 0, want at least 4", i, len(reads))
		}
		var wantSent []sim.Time
		for _, r := range reads {
			wantSent = append(wantSent, r.At+r.Dur)
		}
		if sent := sentAt(i); !slices.Equal(sent, wantSent) {
			t.Errorf("server %d sent round 0's fetches at %v, want each run's as its local read ends, %v", i, sent, wantSent)
		}

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
}
