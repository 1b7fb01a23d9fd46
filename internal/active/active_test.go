package active

import (
	"testing"

	"github.com/hpcio/das/internal/cluster"
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/pfs"
	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/workload"
)

// testRig deploys a small platform with the AS service and one ingested
// raster under the given layout.
type testRig struct {
	clu *cluster.Cluster
	fs  *pfs.FileSystem
	svc *Service
	g   *grid.Grid
}

func newRig(t *testing.T, lay layout.Layout, w, h int, stripSize int64) *testRig {
	t.Helper()
	return newRigOn(t, cluster.Default(), lay, w, h, stripSize)
}

// newRigOn is newRig on a platform of the caller's cost model (four
// compute and four storage nodes all the same).
func newRigOn(t *testing.T, cfg cluster.Config, lay layout.Layout, w, h int, stripSize int64) *testRig {
	t.Helper()
	cfg.ComputeNodes, cfg.StorageNodes = 4, 4
	clu, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs := pfs.New(clu)
	svc := Deploy(fs, kernels.Default(), nil)
	g := workload.Terrain(w, h, 11)
	if _, err := fs.Create("in", g.SizeBytes(), lay, pfs.CreateOptions{
		StripSize: stripSize, Width: w, Height: h, ElemSize: grid.ElemSize,
	}); err != nil {
		t.Fatal(err)
	}
	rig := &testRig{clu: clu, fs: fs, svc: svc, g: g}
	rig.run(t, func(p *sim.Proc) error {
		return fs.NewClient(clu.ComputeID(0)).WriteAll(p, "in", g.Bytes())
	})
	return rig
}

func (r *testRig) run(t *testing.T, fn func(p *sim.Proc) error) {
	t.Helper()
	var inner error
	r.clu.Eng.Spawn("test", func(p *sim.Proc) { inner = fn(p) })
	if err := r.clu.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if inner != nil {
		t.Fatal(inner)
	}
}

func (r *testRig) createOut(t *testing.T, name string) {
	t.Helper()
	m, _ := r.fs.Meta("in")
	if _, err := r.fs.Create(name, m.Size, m.Layout, pfs.CreateOptions{
		StripSize: m.StripSize, Width: m.Width, Height: m.Height, ElemSize: m.ElemSize,
	}); err != nil {
		t.Fatal(err)
	}
}

func (r *testRig) fetch(t *testing.T, name string) *grid.Grid {
	t.Helper()
	var data []byte
	r.run(t, func(p *sim.Proc) error {
		var err error
		data, err = r.fs.NewClient(r.clu.ComputeID(0)).ReadAll(p, name)
		return err
	})
	m, _ := r.fs.Meta(name)
	g, err := grid.FromBytes(m.Width, m.Height, data)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// Strips of 64 elements (512 bytes) on a width-64 raster: one row per
// strip, dependence spans exactly one strip each way.
const (
	testW     = 64
	testH     = 32
	testStrip = 64 * grid.ElemSize
)

func TestNASWholeStripsMatchesReference(t *testing.T) {
	rig := newRig(t, layout.NewRoundRobin(4), testW, testH, testStrip)
	rig.createOut(t, "out")
	var stats ExecStats
	rig.run(t, func(p *sim.Proc) error {
		var err error
		stats, err = NewClient(rig.fs, rig.clu.ComputeID(0)).Exec(p, "flow-routing", "in", "out", FetchWholeStrips)
		return err
	})
	want := kernels.Apply(kernels.FlowRouting{}, rig.g)
	if got := rig.fetch(t, "out"); !got.Equal(want) {
		t.Error("NAS output differs from sequential reference")
	}
	if stats.RemoteFetches == 0 || stats.RemoteBytes == 0 {
		t.Errorf("NAS over round-robin fetched nothing: %+v", stats)
	}
	if stats.Elements != rig.g.Len() {
		t.Errorf("processed %d elements, want %d", stats.Elements, rig.g.Len())
	}
	if rig.clu.Traffic.Bytes(metrics.ServerToServer) < stats.RemoteBytes {
		t.Error("server↔server traffic below reported fetch bytes")
	}
}

func TestDASLocalOnlyMatchesReferenceWithoutFetches(t *testing.T) {
	// Halo 2 because the ±(W+1) reach spans two strip boundaries; r = 8
	// keeps the replication overhead at the default 2·halo/r = 0.5.
	rig := newRig(t, layout.NewGroupedReplicated(4, 8, 2), testW, testH, testStrip)
	rig.createOut(t, "out")
	ssBefore := rig.clu.Traffic.Bytes(metrics.ServerToServer)
	var stats ExecStats
	rig.run(t, func(p *sim.Proc) error {
		var err error
		stats, err = NewClient(rig.fs, rig.clu.ComputeID(0)).Exec(p, "gaussian-filter", "in", "out", LocalOnly)
		return err
	})
	want := kernels.Apply(kernels.Gaussian{}, rig.g)
	if got := rig.fetch(t, "out"); !got.Equal(want) {
		t.Error("DAS output differs from sequential reference")
	}
	if stats.RemoteFetches != 0 {
		t.Errorf("local-only run fetched %d strips", stats.RemoteFetches)
	}
	// The only server↔server traffic is output replica forwarding: half
	// the output strips (plus request/ack headers) at overhead 0.5.
	ssDelta := rig.clu.Traffic.Bytes(metrics.ServerToServer) - ssBefore
	if ssDelta == 0 {
		t.Error("expected output replica forwarding traffic")
	}
	if ssDelta >= stats.Elements*grid.ElemSize {
		t.Errorf("replica traffic %d should be below full output size %d", ssDelta, stats.Elements*grid.ElemSize)
	}
}

func TestLocalOnlyFailsWhenLayoutInsufficient(t *testing.T) {
	rig := newRig(t, layout.NewRoundRobin(4), testW, testH, testStrip)
	rig.createOut(t, "out")
	var execErr error
	rig.run(t, func(p *sim.Proc) error {
		_, execErr = NewClient(rig.fs, rig.clu.ComputeID(0)).Exec(p, "flow-routing", "in", "out", LocalOnly)
		return nil
	})
	if execErr == nil {
		t.Fatal("local-only over round-robin should fail")
	}
}

func TestFetchRowsMovesFewerBytesThanWholeStrips(t *testing.T) {
	run := func(mode FetchMode) int64 {
		rig := newRig(t, layout.NewRoundRobin(4), testW, testH, testStrip)
		rig.createOut(t, "out")
		var stats ExecStats
		rig.run(t, func(p *sim.Proc) error {
			var err error
			stats, err = NewClient(rig.fs, rig.clu.ComputeID(0)).Exec(p, "median-filter", "in", "out", mode)
			return err
		})
		// Output must stay correct regardless of transport.
		want := kernels.Apply(kernels.Median{}, rig.g)
		if got := rig.fetch(t, "out"); !got.Equal(want) {
			t.Fatal("output differs from reference")
		}
		return stats.RemoteBytes
	}
	whole := run(FetchWholeStrips)
	rows := run(FetchRows)
	if rows >= whole {
		t.Errorf("row fetches moved %d bytes, whole strips %d", rows, whole)
	}
}

func TestExecUnknownOperatorFails(t *testing.T) {
	rig := newRig(t, layout.NewRoundRobin(4), testW, testH, testStrip)
	rig.createOut(t, "out")
	var execErr error
	rig.run(t, func(p *sim.Proc) error {
		_, execErr = NewClient(rig.fs, rig.clu.ComputeID(0)).Exec(p, "nope", "in", "out", FetchWholeStrips)
		return nil
	})
	if execErr == nil {
		t.Error("unknown operator accepted")
	}
}

func TestExecMissingOutputFails(t *testing.T) {
	rig := newRig(t, layout.NewRoundRobin(4), testW, testH, testStrip)
	var execErr error
	rig.run(t, func(p *sim.Proc) error {
		_, execErr = NewClient(rig.fs, rig.clu.ComputeID(0)).Exec(p, "flow-routing", "in", "missing", FetchWholeStrips)
		return nil
	})
	if execErr == nil {
		t.Error("missing output accepted")
	}
}

func TestFetchModeString(t *testing.T) {
	if FetchWholeStrips.String() != "whole-strips" || FetchRows.String() != "rows" || LocalOnly.String() != "local-only" {
		t.Error("mode names wrong")
	}
}
