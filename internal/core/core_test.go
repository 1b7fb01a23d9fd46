package core

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/hpcio/das/internal/active"
	"github.com/hpcio/das/internal/cluster"
	"github.com/hpcio/das/internal/fault"
	"github.com/hpcio/das/internal/features"
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/pfs"
	"github.com/hpcio/das/internal/predict"
	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/workload"
)

// Test geometry: width 64, one row per 512-byte strip, 32 rows.
const (
	testW     = 64
	testH     = 32
	testStrip = int64(testW * grid.ElemSize)
)

func smallConfig() cluster.Config {
	cfg := cluster.Default()
	cfg.ComputeNodes, cfg.StorageNodes = 4, 4
	return cfg
}

// newSystem builds a platform and ingests the test terrain under the
// layout appropriate for the scheme: round-robin for TS and NAS, the
// DAS-planned layout for DAS.
func newSystem(t *testing.T, scheme Scheme, g *grid.Grid) *System {
	t.Helper()
	s, err := NewSystem(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var lay layout.Layout = layout.NewRoundRobin(s.FS.Servers())
	if scheme == DAS {
		lay, err = s.PlanLayout("flow-routing", g.W, grid.ElemSize, testStrip, g.SizeBytes(), 0)
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.IngestGrid("in", g, lay, testStrip); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestIngestGridLeavesTheRasterWithItsCaller: IngestGrid hands the file
// system a view of the raster, not an encoding of its own, so it is the
// primaries' copy on entry that keeps the file apart from what the caller
// does to its grid afterwards.
func TestIngestGridLeavesTheRasterWithItsCaller(t *testing.T) {
	g := workload.Terrain(testW, testH, 5)
	want := g.Clone()
	s := newSystem(t, NAS, g)
	defer s.Close()
	clear(g.Data)
	got, err := s.FetchGrid("in")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Error("the ingested file changed when the caller reused its raster")
	}
}

// TestIngestGridRefusesStripsThatCutElements: a strip size that is not a
// multiple of the element size would store a file FetchGrid refuses, so
// IngestGrid refuses it first, in FetchGrid's words, and creates nothing.
func TestIngestGridRefusesStripsThatCutElements(t *testing.T) {
	s, err := NewSystem(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, err = s.IngestGrid("in", workload.Terrain(testW, testH, 5), layout.NewRoundRobin(4), testStrip+4)
	if err == nil || !strings.Contains(err.Error(), "strips of whole elements") {
		t.Fatalf("IngestGrid with a %d-byte strip: err = %v, want a whole-elements refusal", testStrip+4, err)
	}
	if _, ok := s.FS.Meta("in"); ok {
		t.Error("the refused ingest created the file")
	}
}

// TestFetchGridHoldsTheRasterOnce: FetchGrid decodes each stored strip from
// where it lies into the grid it returns, so a fetch allocates one raster —
// not a byte buffer the size of the file and a grid to decode it into. A
// file that is not a raster in whole-element strips is refused up front.
func TestFetchGridHoldsTheRasterOnce(t *testing.T) {
	g := workload.Terrain(512, 256, 5) // 1 MiB: engine bookkeeping is small beside it
	s, err := NewSystem(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.IngestGrid("in", g, layout.NewRoundRobin(4), 64<<10); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := s.FetchGrid("in")
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(g) {
		t.Error("fetched raster differs from the ingested one")
	}
	if alloc := int64(after.TotalAlloc - before.TotalAlloc); alloc > g.SizeBytes()*3/2 {
		t.Errorf("FetchGrid of a %d-byte raster allocated %d bytes: the raster is held more than once", g.SizeBytes(), alloc)
	}

	for name, opts := range map[string]pfs.CreateOptions{
		"plain":     {},
		"odd-strip": {StripSize: 100, Width: 8, Height: 8, ElemSize: grid.ElemSize},
		"short":     {Width: 8, Height: 7, ElemSize: grid.ElemSize},
	} {
		if _, err := s.FS.Create(name, 8*8*grid.ElemSize, layout.NewRoundRobin(4), opts); err != nil {
			t.Fatal(err)
		}
		if _, err := s.FetchGrid(name); err == nil {
			t.Errorf("FetchGrid accepted %q, which is not a raster in whole-element strips", name)
		}
	}
}

// TestSchemesProduceIdenticalOutputs is the headline functional invariant:
// all three schemes compute exactly the sequential reference.
func TestSchemesProduceIdenticalOutputs(t *testing.T) {
	g := workload.Terrain(testW, testH, 5)
	for _, op := range []string{"flow-routing", "flow-accumulation", "gaussian-filter", "median-filter", "surface-slope", "diffusion"} {
		op := op
		t.Run(op, func(t *testing.T) {
			k, _ := kernels.Default().Lookup(op)
			want := kernels.Apply(k, g)
			for _, scheme := range []Scheme{TS, NAS, DAS} {
				s := newSystem(t, scheme, g)
				rep, err := s.Execute(Request{Op: op, Input: "in", Output: "out", Scheme: scheme})
				if err != nil {
					t.Fatalf("%v: %v", scheme, err)
				}
				got, err := s.FetchGrid("out")
				if err != nil {
					t.Fatalf("%v: %v", scheme, err)
				}
				if !got.Equal(want) {
					t.Errorf("%v output differs from sequential reference (max diff %g)",
						scheme, got.MaxAbsDiff(want))
				}
				if rep.ExecTime <= 0 {
					t.Errorf("%v reported non-positive exec time", scheme)
				}
			}
		})
	}
}

func TestTSNeverOffloads(t *testing.T) {
	g := workload.Terrain(testW, testH, 5)
	s := newSystem(t, TS, g)
	rep, err := s.Execute(Request{Op: "flow-routing", Input: "in", Output: "out", Scheme: TS})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Offloaded {
		t.Error("TS offloaded")
	}
	// TS moves the input over client links and no dependent strips
	// between servers.
	if rep.Traffic[metrics.ServerToClient] < g.SizeBytes() {
		t.Errorf("TS read only %d bytes to clients, want ≥ %d",
			rep.Traffic[metrics.ServerToClient], g.SizeBytes())
	}
	if rep.Traffic[metrics.ServerToServer] != 0 {
		t.Errorf("TS moved %d bytes between servers", rep.Traffic[metrics.ServerToServer])
	}
}

func TestNASMovesDependentStripsBetweenServers(t *testing.T) {
	g := workload.Terrain(testW, testH, 5)
	s := newSystem(t, NAS, g)
	rep, err := s.Execute(Request{Op: "flow-routing", Input: "in", Output: "out", Scheme: NAS})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Offloaded {
		t.Error("NAS did not offload")
	}
	if rep.Stats.RemoteBytes == 0 {
		t.Error("NAS fetched nothing despite round-robin dependence")
	}
	// The input never crosses to the clients.
	if rep.Traffic[metrics.ServerToClient] > g.SizeBytes()/4 {
		t.Errorf("NAS moved %d bytes to clients", rep.Traffic[metrics.ServerToClient])
	}
}

// TestPredictedTrafficMatchesMeasured ties the prediction core to the
// implementation: the dependent-strip fetches the kernel price walks must
// equal, fetch for fetch and byte for byte, what the NAS servers actually
// transfer — under every layout family, where a server's run of
// consecutive strips fetches each dependent strip once, and with a server
// down, where strips run on the holders layout.Placer gives them.
func TestPredictedTrafficMatchesMeasured(t *testing.T) {
	g := workload.Terrain(testW, testH, 5)
	cases := []struct {
		lay  layout.Layout
		down int // the server crashed at t=0; -1: none
	}{
		{layout.NewRoundRobin(4), -1},
		{layout.NewGrouped(4, 4), -1},
		{layout.NewGrouped(4, 2), -1},
		{layout.NewGroupedReplicated(4, 4, 1), -1},
		{layout.NewGroupedReplicated(4, 2, 2), 1},
		{layout.NewGroupedReplicated(4, 2, 2), 2},
		{layout.NewGroupedReplicated(4, 4, 2), 1},
		{layout.NewGroupedReplicated(4, 4, 2), 2},
	}
	for _, c := range cases {
		name := c.lay.Name()
		if c.down >= 0 {
			name += fmt.Sprintf(" server %d down", c.down)
		}
		t.Run(name, func(t *testing.T) {
			s := ingested(t, g, c.lay)
			defer s.Close()
			var obs predict.Observations
			if c.down >= 0 {
				if err := s.Clu.InstallFaultPlan(fault.Plan{Events: []fault.Event{{At: 0, Kind: fault.Crash, Server: c.down}}}); err != nil {
					t.Fatal(err)
				}
				// Fire the crash by running an empty workload.
				if _, err := s.run("tick", func(p *sim.Proc) error { p.Sleep(sim.Millisecond); return nil }); err != nil {
					t.Fatal(err)
				}
				obs.Down = s.Clu.ServerDown
			}
			m, _ := s.FS.Meta("in")
			pat, _ := s.Features.Lookup("flow-routing")
			d, err := predict.Estimate(predict.Kernel(pat), predictParams(m), m.Layout, obs)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := s.Execute(Request{Op: "flow-routing", Input: "in", Output: "out", Scheme: NAS})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Stats.RemoteFetches != d.Analysis.StripFetches {
				t.Errorf("measured fetches %d != predicted %d", rep.Stats.RemoteFetches, d.Analysis.StripFetches)
			}
			if rep.Stats.RemoteBytes != d.Analysis.StripFetchBytes {
				t.Errorf("measured NAS fetch bytes %d != predicted %d", rep.Stats.RemoteBytes, d.Analysis.StripFetchBytes)
			}
		})
	}
}

func TestDASOffloadsLocallyAndBeatsBothSchemes(t *testing.T) {
	g := workload.Terrain(testW, testH, 5)
	times := make(map[Scheme]float64)
	for _, scheme := range []Scheme{TS, NAS, DAS} {
		s := newSystem(t, scheme, g)
		rep, err := s.Execute(Request{Op: "flow-routing", Input: "in", Output: "out", Scheme: scheme})
		if err != nil {
			t.Fatal(err)
		}
		times[scheme] = rep.ExecTime.Seconds()
		if scheme == DAS {
			if !rep.Offloaded {
				t.Error("DAS rejected a fully local stencil")
			}
			if rep.Decision == nil || !rep.Decision.Analysis.LocalByLayout {
				t.Errorf("DAS decision: %+v", rep.Decision)
			}
			if rep.Stats.RemoteFetches != 0 {
				t.Errorf("DAS fetched %d strips remotely", rep.Stats.RemoteFetches)
			}
		}
	}
	if !(times[DAS] < times[TS] && times[TS] < times[NAS]) {
		t.Errorf("expected DAS < TS < NAS, got DAS=%.4fs TS=%.4fs NAS=%.4fs",
			times[DAS], times[TS], times[NAS])
	}
}

func TestDASRejectsHostilePatternAndFallsBackToTS(t *testing.T) {
	// Register a synthetic kernel that touches six distinct strips per
	// element (strides of 1, 2, and 3 strips): under round-robin with no
	// reconfiguration allowed, offloading moves ~6× the file size between
	// servers versus 2× for normal I/O, and the prediction core must
	// reject it — the workflow's "Reject the request" branch.
	g := workload.Ramp(testW, testH)
	s, err := NewSystem(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	hostile := kernels.ScatterKernel{OpName: "hostile", Strides: []int64{64, 128, 192}}
	s.Registry.Register(hostile)
	s.Features = s.Registry.Features()
	if _, err := s.IngestGrid("in", g, layout.NewRoundRobin(s.FS.Servers()), testStrip); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Execute(Request{Op: "hostile", Input: "in", Output: "out", Scheme: DAS})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Offloaded {
		t.Fatalf("DAS offloaded a hostile pattern: %+v", rep.Decision)
	}
	if rep.Decision == nil || rep.Decision.Offload {
		t.Errorf("decision: %+v", rep.Decision)
	}
	// The fallback path must still produce the right answer.
	want := kernels.Apply(hostile, g)
	got, err := s.FetchGrid("out")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Error("rejected request served incorrectly")
	}
}

// TestDASReconfigureMigratesThenOffloads: input ingested round-robin (as a
// foreign writer would); DAS with Reconfigure migrates it to the improved
// layout and then offloads, under the one Decision it migrated on — the
// planned layout's, priced on the platform before migrating.
func TestDASReconfigureMigratesThenOffloads(t *testing.T) {
	g := workload.Terrain(testW, testH, 5)
	s, err := NewSystem(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.IngestGrid("in", g, layout.NewRoundRobin(s.FS.Servers()), testStrip); err != nil {
		t.Fatal(err)
	}
	m, _ := s.FS.Meta("in")
	planned, err := s.PlanLayout("gaussian-filter", m.Width, m.ElemSize, m.StripSize, m.Size, 0)
	if err != nil {
		t.Fatal(err)
	}
	pat, _ := s.Features.Lookup("gaussian-filter")
	want, err := predict.Estimate(predict.Kernel(pat), predictParams(m), planned, s.observations("in"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Execute(Request{Op: "gaussian-filter", Input: "in", Output: "out", Scheme: DAS, Reconfigure: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Reconfigured || rep.ReconfigTime <= 0 {
		t.Errorf("expected reconfiguration: %+v", rep)
	}
	if rep.Decision == nil || !reflect.DeepEqual(*rep.Decision, want) {
		t.Errorf("reconfigured request decided\n%+v\nwant the planned layout's price\n%+v", rep.Decision, want)
	}
	if !rep.Offloaded || rep.Stats.RemoteFetches != 0 {
		t.Errorf("expected local offload after reconfiguration: %+v", rep)
	}
	got, err := s.FetchGrid("out")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(kernels.Apply(kernels.Gaussian{}, g)) {
		t.Error("output differs from reference after reconfiguration")
	}
}

func TestDASWithoutReconfigureRejectsMisplacedInput(t *testing.T) {
	g := workload.Terrain(testW, testH, 5)
	s, err := NewSystem(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.IngestGrid("in", g, layout.NewRoundRobin(s.FS.Servers()), testStrip); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Execute(Request{Op: "flow-routing", Input: "in", Output: "out", Scheme: DAS})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Offloaded {
		t.Error("DAS offloaded over a hostile round-robin placement without reconfiguring")
	}
	if rep.Reconfigured {
		t.Error("reconfigured without permission")
	}
}

func TestPipelineSuccessiveOperationsStayLocal(t *testing.T) {
	// The paper's motivating pipeline: flow-accumulation consumes
	// flow-routing's intermediate image. Because DAS writes the output
	// under the same improved layout, the successor offloads with zero
	// remote fetches and no further reconfiguration.
	g := workload.Terrain(testW, testH, 5)
	s := newSystem(t, DAS, g)
	r1, err := s.Execute(Request{Op: "flow-routing", Input: "in", Output: "dirs", Scheme: DAS})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Execute(Request{Op: "flow-accumulation", Input: "dirs", Output: "acc", Scheme: DAS})
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Offloaded || !r2.Offloaded {
		t.Error("pipeline stages not offloaded")
	}
	if r2.Stats.RemoteFetches != 0 || r2.Reconfigured {
		t.Errorf("successor was not free: %+v", r2)
	}
	want := kernels.Apply(kernels.FlowAccumulation{}, kernels.Apply(kernels.FlowRouting{}, g))
	got, err := s.FetchGrid("acc")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Error("pipeline output differs from reference")
	}
}

func TestDisablePredictionForcesOffload(t *testing.T) {
	g := workload.Ramp(testW, testH)
	s, err := NewSystem(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	hostile := kernels.ScatterKernel{OpName: "hostile", Strides: []int64{64, 128, 192}}
	s.Registry.Register(hostile)
	s.Features = s.Registry.Features()
	if _, err := s.IngestGrid("in", g, layout.NewRoundRobin(s.FS.Servers()), testStrip); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Execute(Request{
		Op: "hostile", Input: "in", Output: "out", Scheme: DAS, DisablePrediction: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Offloaded {
		t.Error("prediction-disabled DAS did not offload")
	}
	if rep.Stats.RemoteBytes == 0 {
		t.Error("forced offload should have paid remote fetches")
	}
	want := kernels.Apply(hostile, g)
	got, err := s.FetchGrid("out")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Error("forced offload produced wrong output")
	}
}

func TestExecuteValidation(t *testing.T) {
	s, err := NewSystem(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute(Request{Op: "flow-routing", Input: "nope", Output: "out", Scheme: TS}); err == nil {
		t.Error("unknown input accepted")
	}
	g := workload.Ramp(testW, testH)
	if _, err := s.IngestGrid("in", g, layout.NewRoundRobin(s.FS.Servers()), testStrip); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute(Request{Op: "nope", Input: "in", Output: "out", Scheme: TS}); err == nil {
		t.Error("unknown operator accepted")
	}
	if _, err := s.Execute(Request{Op: "flow-routing", Input: "in", Output: "out", Scheme: Scheme(42)}); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestSchemeAndModeStrings(t *testing.T) {
	if TS.String() != "TS" || NAS.String() != "NAS" || DAS.String() != "DAS" {
		t.Error("scheme names wrong")
	}
	if Scheme(9).String() == "" {
		t.Error("unknown scheme has empty name")
	}
	_ = active.FetchWholeStrips
	_ = features.Pattern{}
	_ = fmt.Sprintf
}

func TestExecutionIsDeterministic(t *testing.T) {
	g := workload.Terrain(testW, testH, 5)
	run := func() (float64, int64) {
		s := newSystem(t, DAS, g)
		rep, err := s.Execute(Request{Op: "flow-routing", Input: "in", Output: "out", Scheme: DAS})
		if err != nil {
			t.Fatal(err)
		}
		return rep.ExecTime.Seconds(), rep.Traffic[metrics.ServerToServer]
	}
	t1, b1 := run()
	t2, b2 := run()
	if t1 != t2 || b1 != b2 {
		t.Errorf("nondeterministic execution: (%v,%d) vs (%v,%d)", t1, b1, t2, b2)
	}
}
