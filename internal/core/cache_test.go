package core

import (
	"testing"

	"github.com/hpcio/das/internal/cache"
	"github.com/hpcio/das/internal/control"
	"github.com/hpcio/das/internal/fault"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/workload"
)

// TestCacheWarmsAcrossNASRounds is the core e2e: the second offloaded
// round over the same input serves its dependent strips from the
// halo-strip cache instead of refetching them, and both rounds stay
// byte-identical to the sequential reference.
func TestCacheWarmsAcrossNASRounds(t *testing.T) {
	g := workload.Terrain(testW, testH, 5)
	k, _ := kernels.Default().Lookup("flow-routing")
	want := kernels.Apply(k, g)

	s := ingested(t, g, layout.NewRoundRobin(4))
	defer s.Close()
	if err := s.EnableCache(cache.Config{}); err != nil {
		t.Fatal(err)
	}
	req := Request{Op: "flow-routing", Input: "in", Scheme: NAS}

	req.Output = "out1"
	rep1, err := s.Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	// The cold round may already hit on halo strips shared between a
	// server's runs (flow-routing's dependence spans two strips), but it
	// must pay remote fetches for everything else.
	if rep1.Stats.RemoteFetches == 0 {
		t.Fatal("cold round fetched nothing; workload has no dependence to cache")
	}

	req.Output = "out2"
	rep2, err := s.Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Stats.CacheHits <= rep1.Stats.CacheHits {
		t.Errorf("warm round hit %d times, not more than cold round's %d",
			rep2.Stats.CacheHits, rep1.Stats.CacheHits)
	}
	if rep2.Stats.RemoteBytes >= rep1.Stats.RemoteBytes {
		t.Errorf("warm round fetched %d bytes, not fewer than cold round's %d",
			rep2.Stats.RemoteBytes, rep1.Stats.RemoteBytes)
	}
	for _, out := range []string{"out1", "out2"} {
		got, err := s.FetchGrid(out)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("%s diverged from the sequential reference", out)
		}
	}
	if s.Clu.Counters.Get("cache.hits") == 0 {
		t.Error("cluster-wide cache counters saw no hits")
	}
}

// TestCacheInvalidatedByWrites: rewriting the input kills every cached
// copy of its strips, so the next round misses instead of serving stale
// bytes.
func TestCacheInvalidatedByWrites(t *testing.T) {
	g := workload.Terrain(testW, testH, 5)
	s := ingested(t, g, layout.NewRoundRobin(4))
	defer s.Close()
	if err := s.EnableCache(cache.Config{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute(Request{Op: "flow-routing", Input: "in", Output: "o1", Scheme: NAS}); err != nil {
		t.Fatal(err)
	}
	warm := int64(0)
	for srv := 0; srv < s.Cache.NumServers(); srv++ {
		warm += s.Cache.Server(srv).UsedBytes()
	}
	if warm == 0 {
		t.Fatal("no cached bytes after the warm-up round")
	}

	// Rewrite the input in place: every strip write must invalidate.
	g2 := workload.Terrain(testW, testH, 6)
	if _, err := s.run("rewrite", func(p *sim.Proc) error {
		return s.FS.NewClient(s.Clu.ComputeID(0)).WriteAll(p, "in", g2.Bytes())
	}); err != nil {
		t.Fatal(err)
	}
	for srv := 0; srv < s.Cache.NumServers(); srv++ {
		if used := s.Cache.Server(srv).UsedBytes(); used != 0 {
			t.Errorf("server %d kept %d cached bytes of the rewritten file", srv, used)
		}
	}
	if s.Clu.Counters.Get("cache.invalidations") == 0 {
		t.Error("no invalidations recorded")
	}

	// The next round recomputes from the new bytes.
	k, _ := kernels.Default().Lookup("flow-routing")
	want := kernels.Apply(k, g2)
	if _, err := s.Execute(Request{Op: "flow-routing", Input: "in", Output: "o2", Scheme: NAS}); err != nil {
		t.Fatal(err)
	}
	got, err := s.FetchGrid("o2")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Error("post-rewrite output diverged: stale cache bytes served")
	}
}

// TestCacheCrashPurgesPinnedStrips is the cache × fault interaction: a
// server whose cache holds hot pinned strips crashes mid-run and
// restarts; the incarnation bump purges its cache (memory does not
// survive a crash even though the simulated disk does), the pins are
// gone, and the interrupted run still finishes byte-identical to the
// sequential reference.
func TestCacheCrashPurgesPinnedStrips(t *testing.T) {
	g := workload.Terrain(testW, testH, 5)
	k, _ := kernels.Default().Lookup("flow-routing")
	want := kernels.Apply(k, g)

	s := ingested(t, g, layout.NewRoundRobin(4))
	defer s.Close()
	if err := s.EnableCache(cache.Config{}); err != nil {
		t.Fatal(err)
	}

	// Warm round: server 1's cache fills with the halo strips it fetched.
	rep1, err := s.Execute(Request{Op: "flow-routing", Input: "in", Output: "warm", Scheme: NAS})
	if err != nil {
		t.Fatal(err)
	}
	const crashed = 1
	sc := s.Cache.Server(crashed)
	in, _ := s.FS.Meta("in")
	pinnedStrip := int64(-1)
	for strip := int64(0); strip < in.Strips(); strip++ {
		if sc.Holds("in", strip) {
			if !sc.Pin("in", strip) {
				t.Fatalf("pin of resident strip %d failed", strip)
			}
			pinnedStrip = strip
			break
		}
	}
	if pinnedStrip < 0 {
		t.Fatal("server 1 cached nothing in the warm round")
	}

	// Crash server 1 mid-run and bring it back: the run bridges the
	// outage via dispatch retries, and the restart bumps the incarnation.
	plan := fault.Plan{Events: []fault.Event{
		{At: rep1.ExecTime / 2, Kind: fault.Crash, Server: crashed},
		{At: rep1.ExecTime/2 + 50*sim.Millisecond, Kind: fault.Restart, Server: crashed},
	}}
	if err := s.Clu.InstallFaultPlan(plan); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute(Request{Op: "flow-routing", Input: "in", Output: "crashed", Scheme: NAS}); err != nil {
		t.Fatal(err)
	}
	got, err := s.FetchGrid("crashed")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Error("crashed run diverged from the sequential reference")
	}
	if sc.Pinned("in", pinnedStrip) {
		t.Error("pinned strip survived the restart")
	}
	if snap := sc.Snapshot(); snap.PinnedBytes != 0 {
		t.Errorf("server %d still accounts %d pinned bytes", crashed, snap.PinnedBytes)
	}
}

// TestCacheRunsDeterministic guards the DES contract: two identical systems
// running the identical cached workload under the controller produce
// identical cache statistics, pin actions and engine event counts — any
// map-iteration-order or wall-clock leak in the cache or its promote and
// demote passes breaks this.
func TestCacheRunsDeterministic(t *testing.T) {
	type outcome struct {
		hits, evict, promo, demo int64
		counters                 string
		events                   uint64
		actions                  int
	}
	runOnce := func() outcome {
		g := workload.Terrain(testW, testH, 5)
		s := ingested(t, g, layout.NewRoundRobin(4))
		defer s.Close()
		// A small budget forces evictions; a controller whose narrow band
		// sits on this cluster's fetch tail forces promote and demote
		// traffic. A fetch sent a run ahead of its assembly waits behind the
		// run before it, so the tail is 0.8–2 ms: per server, p50 0.8–1.3 ms
		// and p99 1.7–2.0 ms.
		if err := s.EnableCache(cache.Config{BudgetBytes: 8 * testStrip}); err != nil {
			t.Fatal(err)
		}
		if err := s.EnableControl(control.Config{
			SampleEvery: 2 * sim.Millisecond,
			LatencyHigh: 1500 * sim.Microsecond,
			LatencyLow:  1200 * sim.Microsecond,
		}); err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 3; round++ {
			out := []string{"a", "b", "c"}[round]
			if _, err := s.Execute(Request{Op: "flow-routing", Input: "in", Output: out, Scheme: NAS}); err != nil {
				t.Fatal(err)
			}
		}
		reg := s.Clu.Counters
		return outcome{
			hits: reg.Get("cache.hits"), evict: reg.Get("cache.evictions"),
			promo: reg.Get("cache.promotions"), demo: reg.Get("cache.demotions"),
			counters: reg.Format(""),
			events:   s.Clu.Eng.Events(),
			actions:  len(s.Cache.Actions()),
		}
	}
	a, b := runOnce(), runOnce()
	if a != b {
		t.Errorf("identical cached runs diverged:\n  run 1: %+v\n  run 2: %+v", a, b)
	}
	if a.hits == 0 || a.evict == 0 || a.promo == 0 || a.demo == 0 {
		t.Errorf("workload did not exercise the cache (hits=%d evictions=%d promotions=%d demotions=%d)",
			a.hits, a.evict, a.promo, a.demo)
	}
}
