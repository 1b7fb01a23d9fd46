package core

import (
	"reflect"
	"strings"
	"testing"

	"github.com/hpcio/das/internal/cache"
	"github.com/hpcio/das/internal/fault"
	"github.com/hpcio/das/internal/features"
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/predict"
	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/workload"
)

// TestGatesShareOneDecision: for one platform state, every DAS entry point
// prices its request under the same observations. Execute and a
// one-request ExecuteConcurrent build the same job — equal decisions,
// paths and server-side stats, for every scheme on the healthy platform —
// Reduce returns the decision those observations give its empty pattern,
// and ExecuteDAG's gate sees the kernel gate's hit fraction, tail and
// down-set. A healthy DAS pushdown records that price and runs it: its
// depth, predicted seconds and lower bound are the Decision's. (The
// concurrent and reduce gates used to price a cold, healthy cluster
// whatever its state, and the pipeline client priced every DAG again.)
func TestGatesShareOneDecision(t *testing.T) {
	g := workload.Terrain(testW, testH, 5)
	crash := func(s *System, events ...fault.Event) {
		t.Helper()
		if err := s.Clu.InstallFaultPlan(fault.Plan{Events: events}); err != nil {
			t.Fatal(err)
		}
		// Fire the plan's time-zero events by running an empty workload.
		if _, err := s.run("tick", func(p *sim.Proc) error { p.Sleep(sim.Millisecond); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	// Server 1 is down when the request is decided; its restart lets a
	// request the gate turns away finish as normal I/O, whose write-back has
	// no replica to fail over to.
	outage := []fault.Event{
		{At: 0, Kind: fault.Crash, Server: 1},
		{At: 80 * sim.Millisecond, Kind: fault.Restart, Server: 1},
	}
	states := []struct {
		name    string
		schemes []Scheme // DAS last: its decision is the one checked
		build   func() *System
		check   func(t *testing.T, kernel, reduce predict.Decision)
	}{
		{"warm cache", []Scheme{TS, NAS, DAS}, func() *System {
			s := ingested(t, g, layout.NewRoundRobin(4))
			if err := s.EnableCache(cache.Config{}); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Execute(Request{Op: "flow-routing", Input: "in", Output: "warmup", Scheme: NAS}); err != nil {
				t.Fatal(err)
			}
			return s
		}, func(t *testing.T, kernel, reduce predict.Decision) {
			if kernel.CacheHitFrac == 0 || kernel.HitDiscountBytes == 0 {
				t.Errorf("the warm-up left no hit rate to observe: %+v", kernel)
			}
			if reduce.CacheHitFrac != kernel.CacheHitFrac {
				t.Errorf("reduce gate saw hit fraction %v, kernel gate %v", reduce.CacheHitFrac, kernel.CacheHitFrac)
			}
		}},
		{"server down, every strip replicated", []Scheme{DAS}, func() *System {
			s := ingested(t, g, crashSurvivableLayout(4))
			crash(s, outage...)
			return s
		}, func(t *testing.T, kernel, reduce predict.Decision) {
			for _, d := range []predict.Decision{kernel, reduce} {
				if !d.Degraded || d.Analysis.UnservableStrips != 0 || !strings.Contains(d.Reason, "degraded") {
					t.Errorf("gate did not price the degraded cluster: %+v", d)
				}
			}
		}},
		{"server down, no live copy", []Scheme{DAS}, func() *System {
			s := ingested(t, g, layout.NewRoundRobin(4))
			crash(s, outage...)
			return s
		}, func(t *testing.T, kernel, reduce predict.Decision) {
			for _, d := range []predict.Decision{kernel, reduce} {
				if d.Offload || d.Analysis.UnservableStrips == 0 {
					t.Errorf("lost strips did not veto the offload: %+v", d)
				}
			}
		}},
	}
	for _, st := range states {
		t.Run(st.name, func(t *testing.T) {
			var single Report
			for _, scheme := range st.schemes {
				req := Request{Op: "flow-routing", Input: "in", Output: "out", Scheme: scheme}
				var err error
				if single, err = st.build().Execute(req); err != nil {
					t.Fatal(err)
				}
				batch, err := st.build().ExecuteConcurrent([]Request{req})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(single.Decision, batch[0].Decision) {
					t.Errorf("%v: Execute and ExecuteConcurrent decide differently:\n%+v\n%+v", scheme, single.Decision, batch[0].Decision)
				}
				if single.Offloaded != batch[0].Offloaded || single.Degraded != batch[0].Degraded {
					t.Errorf("%v: Execute offloaded=%v degraded=%v, ExecuteConcurrent offloaded=%v degraded=%v",
						scheme, single.Offloaded, single.Degraded, batch[0].Offloaded, batch[0].Degraded)
				}
				if !reflect.DeepEqual(single.Stats, batch[0].Stats) {
					t.Errorf("%v: Execute and ExecuteConcurrent ran differently:\n%+v\n%+v", scheme, single.Stats, batch[0].Stats)
				}
			}

			s := st.build()
			m, _ := s.FS.Meta("in")
			params := predictParams(m)
			params.OutputFactor = float64(kernels.Stats{}.PartialLen()*grid.ElemSize) / float64(m.Size)
			want, err := predict.Estimate(predict.Kernel(features.Pattern{Name: "stats"}), params, m.Layout, s.observations("in"))
			if err != nil {
				t.Fatal(err)
			}
			red, err := s.Reduce(ReduceRequest{Op: "stats", Input: "in", Scheme: DAS})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(*red.Decision, want) {
				t.Errorf("Reduce decided\n%+v\nwant, under the platform's observations,\n%+v", *red.Decision, want)
			}
			if red.Offloaded != want.Offload {
				t.Errorf("Reduce offloaded=%v against its own decision %v", red.Offloaded, want.Offload)
			}
			st.check(t, *single.Decision, *red.Decision)

			kernel := *single.Decision
			dagReq := DAGRequest{DAG: dagChain3(), Input: "in", Output: "dag", Scheme: DAS, DisablePrediction: true}
			s = st.build()
			m, _ = s.FS.Meta("in")
			_, dag, err := s.priceDAG(dagReq, m)
			if err != nil {
				t.Fatal(err)
			}
			if dag.CacheHitFrac != kernel.CacheHitFrac || dag.Degraded != kernel.Degraded {
				t.Errorf("DAG gate observed hit %v, degraded %v; kernel gate %v, %v",
					dag.CacheHitFrac, dag.Degraded, kernel.CacheHitFrac, kernel.Degraded)
			}
			if s.Clu.AnyStorageDown() {
				return
			}
			rep, err := s.ExecuteDAG(dagReq)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Pipelined || rep.Decision == nil || !reflect.DeepEqual(*rep.Decision, dag) {
				t.Fatalf("pushdown pipelined=%v under decision\n%+v\nwant the gate's\n%+v", rep.Pipelined, rep.Decision, dag)
			}
			if run := rep.Run; run.Depth != dag.Depth || run.PredictedSeconds != dag.Depths[dag.Depth-1].Seconds ||
				run.LowerBoundBytes != dag.LowerBoundBytes {
				t.Errorf("pushdown ran depth %d priced %v bound %d; its Decision depth %d priced %v bound %d",
					run.Depth, run.PredictedSeconds, run.LowerBoundBytes, dag.Depth, dag.Depths[dag.Depth-1].Seconds, dag.LowerBoundBytes)
			}
		})
	}
}

// TestAlignedStrideOffloadsAtTheEdges: a stride Eq. (17) calls local still
// reads the first or last strip wherever the dependence leaves the file
// and clamps. The strip walk prices those fetches, so the decision must not
// claim locality and select a LocalOnly run, which fails on the first one.
func TestAlignedStrideOffloadsAtTheEdges(t *testing.T) {
	g := workload.Terrain(testW, testH, 7)
	s := ingested(t, g, layout.NewRoundRobin(4))
	k := kernels.StrideKernel{Stride: 4 * testW} // four strips under D=4
	if !predict.Eq17(k.Stride, grid.ElemSize, testStrip, 1, 4) {
		t.Fatal("fixture stride is not Eq. (17)-aligned")
	}
	s.Registry.Register(k)
	if err := s.Features.Register(kernels.Pattern(k)); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Execute(Request{Op: k.Name(), Input: "in", Output: "out", Scheme: DAS})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Offloaded || rep.Decision.Analysis.LocalByLayout || rep.Stats.RemoteBytes != rep.Decision.FetchBytes {
		t.Errorf("offloaded=%v, fetched %d bytes, decision %+v", rep.Offloaded, rep.Stats.RemoteBytes, rep.Decision)
	}
	out, err := s.FetchGrid("out")
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(kernels.Apply(k, g)) {
		t.Error("output differs from the sequential reference")
	}
}
