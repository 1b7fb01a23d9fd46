package core

import (
	"math"
	"testing"

	"github.com/hpcio/das/internal/bufpool"
	"github.com/hpcio/das/internal/cache"
	"github.com/hpcio/das/internal/fault"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/pfs"
	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/workload"
)

// TestOutputsSurvivePoisonedPools runs the offload paths with every pool
// scribbling over whatever is returned to it. The store keeps kernel
// output and replica forwards by reference and lends its slices to every
// reader — the kernel on the holder, a remote fetch, the halo cache, a
// client — so none of that memory may ever reach a pool; and a band's own
// pooled windows may not reach one before the kernel over it has
// returned. If either happened the outputs would hold the poison instead
// of the reference.
func TestOutputsSurvivePoisonedPools(t *testing.T) {
	done := bufpool.Audit()
	defer func() {
		if n := done(); n != 0 {
			t.Errorf("%d pooled buffers outstanding", n)
		}
	}()
	g := workload.Terrain(testW, testH, 5)

	t.Run("execute", func(t *testing.T) {
		// Two offloads back to back: the second reads, as lent views, the
		// strips the first one's kernel output became, replicas included.
		s := newSystem(t, DAS, g)
		defer s.Close()
		want := g
		in := "in"
		for _, step := range []struct{ op, out string }{{"flow-routing", "dirs"}, {"flow-accumulation", "acc"}} {
			k, _ := kernels.Default().Lookup(step.op)
			want = kernels.Apply(k, want)
			rep, err := s.Execute(Request{Op: step.op, Input: in, Output: step.out, Scheme: DAS})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Offloaded {
				t.Fatalf("%s was not offloaded: the test would not reach the exec path", step.op)
			}
			got, err := s.FetchGrid(step.out)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s output differs from the sequential reference under poisoned pools (max diff %g)",
					step.op, got.MaxAbsDiff(want))
			}
			in = step.out
		}
	})

	t.Run("release-shim", func(t *testing.T) {
		// bench/probes.go still hands what it read to pfs.ReleaseBuffer.
		// A read result is a window of the owner's stored strip: if the
		// shim fed a pool, the poison would land in the file.
		s := ingested(t, g, layout.NewRoundRobin(4))
		defer s.Close()
		m, _ := s.FS.Meta("in")
		if _, err := s.run("read-release", func(p *sim.Proc) error {
			for strip := int64(0); strip < m.Strips(); strip++ {
				data, err := s.FS.ReadStripFrom(p, s.Clu.ComputeID(0), m.Layout.Primary(strip), "in", strip, 0, 0)
				if err != nil {
					return err
				}
				pfs.ReleaseBuffer(data)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		got, err := s.FetchGrid("in")
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(g) {
			t.Fatal("releasing read results changed the stored file under poisoned pools")
		}
	})

	t.Run("nas", func(t *testing.T) {
		// Every run's band is lent its dependent strips where they lie:
		// the owners' stored strips and, with a cache too small to keep
		// what it admits, hits whose entries are evicted by the sibling
		// fetches the exec is parked on.
		k, _ := kernels.Default().Lookup("flow-routing")
		want := kernels.Apply(k, g)
		s := ingested(t, g, layout.NewRoundRobin(4))
		defer s.Close()
		if err := s.EnableCache(cache.Config{BudgetBytes: 5 * testStrip}); err != nil {
			t.Fatal(err)
		}
		var hits int64
		for _, out := range []string{"out1", "out2"} {
			rep, err := s.Execute(Request{Op: "flow-routing", Input: "in", Output: out, Scheme: NAS})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Stats.RemoteFetches == 0 {
				t.Fatal("NAS fetched nothing: the test would not reach the lent remote strips")
			}
			hits += rep.Stats.CacheHits
			got, err := s.FetchGrid(out)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("NAS output %s differs from the sequential reference under poisoned pools (max diff %g)",
					out, got.MaxAbsDiff(want))
			}
		}
		if hits == 0 || s.Clu.Counters.Get("cache.evictions") == 0 {
			t.Fatalf("%d cache hits, %d evictions: the test would not reach a hit whose entry is evicted",
				hits, s.Clu.Counters.Get("cache.evictions"))
		}
	})

	t.Run("ts", func(t *testing.T) {
		// The TS worker's band is lent the owners' strips, and its output
		// comes from the float pool as the last holder left it — from the
		// second run on, scribbled — with nothing zeroed in between: only
		// a kernel that writes every output element before anything reads
		// one still matches the reference.
		s := newSystem(t, TS, g)
		defer s.Close()
		k, _ := kernels.Default().Lookup("gaussian-filter")
		want := kernels.Apply(k, g)
		for _, out := range []string{"out1", "out2"} {
			if _, err := s.Execute(Request{Op: "gaussian-filter", Input: "in", Output: out, Scheme: TS}); err != nil {
				t.Fatal(err)
			}
			got, err := s.FetchGrid(out)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("TS output %s differs from the sequential reference under poisoned pools (max diff %g)", out, got.MaxAbsDiff(want))
			}
		}
	})

	t.Run("ts-reduce", func(t *testing.T) {
		// The TS reducer folds the owners' strips in place, too, and leaves
		// the stored file as it was ingested.
		s := newSystem(t, TS, g)
		defer s.Close()
		want := kernels.ReduceAll(kernels.Stats{}, g)
		for run := 0; run < 2; run++ {
			rep, err := s.Reduce(ReduceRequest{Op: "stats", Input: "in", Scheme: TS})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Result[kernels.StatCount] != want[kernels.StatCount] ||
				rep.Result[kernels.StatMin] != want[kernels.StatMin] ||
				rep.Result[kernels.StatMax] != want[kernels.StatMax] ||
				math.Abs(rep.Result[kernels.StatSum]-want[kernels.StatSum]) > 1e-6 {
				t.Fatalf("TS reduction %d: aggregate %v under poisoned pools, want %v", run, rep.Result, want)
			}
		}
		got, err := s.FetchGrid("in")
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(g) {
			t.Fatal("a TS reduction changed the stored file under poisoned pools")
		}
	})

	t.Run("dag", func(t *testing.T) {
		d := dagChain3()
		want, err := kernels.ApplyDAG(d, kernels.Default(), kernels.DefaultCombiners(), g)
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range []Scheme{NAS, DAS} {
			s := newSystem(t, scheme, g)
			rep, err := s.ExecuteDAG(DAGRequest{DAG: d, Input: "in", Output: "out", Scheme: scheme, DisablePrediction: true})
			if err != nil {
				t.Fatalf("%v: %v", scheme, err)
			}
			if !rep.Pipelined {
				t.Fatalf("%v: DAG was not pushed down", scheme)
			}
			got, err := s.FetchGrid(rep.Output)
			if err != nil {
				t.Fatalf("%v: %v", scheme, err)
			}
			if !got.Equal(want) {
				t.Errorf("%v: pushdown output differs from the sequential DAG reference under poisoned pools", scheme)
			}
			s.Close()
		}
		t.Run("crash-restart", func(t *testing.T) {
			// Catch-up rebuilds a reassigned strip's whole lineage from the
			// input, and every value on the way to a kept one lives in a
			// pooled band: one released before the kernel reading it had
			// returned would feed that kernel the poison. Fully mirrored, so
			// a live copy of every strip survives the crash.
			lay := layout.NewGroupedReplicated(4, 2, 2)
			req := DAGRequest{DAG: d, Input: "in", Output: "out", Scheme: DAS, DisablePrediction: true}
			healthy := ingested(t, g, lay)
			base, err := healthy.ExecuteDAG(req)
			healthy.Close()
			if err != nil {
				t.Fatal(err)
			}
			s := ingested(t, g, lay)
			defer s.Close()
			// The rounds follow the job start-up: aim inside them.
			startup := s.Clu.Cfg.Startup
			rounds := base.ExecTime - startup
			if err := s.Clu.InstallFaultPlan(fault.Plan{Events: []fault.Event{
				{At: startup + rounds/4, Kind: fault.Crash, Server: 2},
				{At: startup + rounds/2, Kind: fault.Restart, Server: 2},
			}}); err != nil {
				t.Fatal(err)
			}
			rep, err := s.ExecuteDAG(req)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Run.CatchUps == 0 {
				t.Fatalf("crash + restart caught no strip up: the test would not reach the pooled lineage bands (%+v)", rep.Run)
			}
			got, err := s.FetchGrid(rep.Output)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Error("caught-up pushdown output differs from the sequential DAG reference under poisoned pools")
			}
		})
	})
}
