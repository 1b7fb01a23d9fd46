package restripe_test

import (
	"fmt"
	"testing"

	"github.com/hpcio/das/internal/cluster"
	"github.com/hpcio/das/internal/core"
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/predict"
	"github.com/hpcio/das/internal/restripe"
	"github.com/hpcio/das/internal/workload"
)

// observe hands the migrator more than enough flow-routing evidence for a
// file to admit it.
func observe(t *testing.T, s *core.System, file string) {
	t.Helper()
	pat, ok := s.Features.Lookup("flow-routing")
	if !ok {
		t.Fatal("no flow-routing features")
	}
	m, ok := s.FS.Meta(file)
	if !ok {
		t.Fatalf("no file %s", file)
	}
	s.Restripe.Observe(file, pat, predict.Params{
		ElemSize: m.ElemSize, StripSize: m.StripSize, FileSize: m.Size, Width: m.Width, OutputFactor: 1,
	}, m.Size)
}

// recommended is the layout the migrator targets for the test raster.
func recommended(t *testing.T, s *core.System) layout.GroupedReplicated {
	t.Helper()
	pat, _ := s.Features.Lookup("flow-routing")
	target, ok, err := predict.RecommendLayout(pat, predict.Params{
		ElemSize: grid.ElemSize, StripSize: testStrip, FileSize: testH * testStrip, Width: testW, OutputFactor: 1,
	}, s.FS.Servers(), predict.DefaultMaxOverhead)
	if err != nil || !ok {
		t.Fatalf("no recommended layout: %v", err)
	}
	return target
}

// TestMigratedFileKeepsItsFirstServer: a file started on server 2 is
// regrouped around server 2 — its strip 0 does not move.
func TestMigratedFileKeepsItsFirstServer(t *testing.T) {
	g := workload.Terrain(testW, testH, 5)
	s := rig(t, g)
	defer s.Close()
	if _, err := s.IngestGrid("rotated", g, layout.StartingAt(layout.NewRoundRobin(4), 2), testStrip); err != nil {
		t.Fatal(err)
	}
	if err := s.EnableRestripe(restripe.Config{}); err != nil {
		t.Fatal(err)
	}
	observe(t, s, "rotated")
	if s.Restripe.ActiveCount() != 1 {
		t.Fatal("no migration admitted")
	}
	drain(t, s)
	m, _ := s.FS.Meta("rotated")
	gr, ok := m.Layout.(layout.GroupedReplicated)
	if !ok {
		t.Fatalf("converged layout is %s, want grouped-replicated", m.Layout.Name())
	}
	if gr.Primary(0) != 2 {
		t.Errorf("strip 0 moved from server 2 to %d (%s)", gr.Primary(0), gr.Name())
	}
	checkGrid(t, s, "rotated", g)
}

// TestFileAtItsRotatedTargetIsNotAdmitted: a file already placed as the
// migrator would place it, started on its own server, has nowhere to go.
func TestFileAtItsRotatedTargetIsNotAdmitted(t *testing.T) {
	g := workload.Terrain(testW, testH, 5)
	s := rig(t, g)
	defer s.Close()
	at := layout.StartingAt(recommended(t, s), 3)
	if _, err := s.IngestGrid("placed", g, at, testStrip); err != nil {
		t.Fatal(err)
	}
	if err := s.EnableRestripe(restripe.Config{}); err != nil {
		t.Fatal(err)
	}
	observe(t, s, "placed")
	if n := s.Restripe.ActiveCount(); n != 0 {
		t.Errorf("a file at %s admitted for migration: %v", at.Name(), s.Restripe.Status())
	}
	if got := s.Clu.Counters.Get("restripe.planned"); got != 0 {
		t.Errorf("planned %d migrations, want 0", got)
	}
}

// TestHotFilesSpreadOverEveryServer: twelve hot files started on servers
// 0…11 migrate to twelve rotations of one grouped layout, so no server
// owns more than its share of the primaries plus one group.
func TestHotFilesSpreadOverEveryServer(t *testing.T) {
	const d = 12
	cfg := cluster.Default()
	cfg.ComputeNodes, cfg.StorageNodes = d, d
	s, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := workload.Terrain(testW, testH, 5)
	for i := 0; i < d; i++ {
		if _, err := s.IngestGrid(fmt.Sprint("hot", i), g, layout.StartingAt(layout.NewRoundRobin(d), i), testStrip); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.EnableRestripe(restripe.Config{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d; i++ {
		observe(t, s, fmt.Sprint("hot", i))
	}
	drain(t, s)
	if got := s.Clu.Counters.Get("restripe.completed"); got != d {
		t.Fatalf("completed %d migrations, want %d", got, d)
	}
	owned := make([]int64, d)
	var strips int64
	for i := 0; i < d; i++ {
		m, _ := s.FS.Meta(fmt.Sprint("hot", i))
		for st := int64(0); st < m.Strips(); st++ {
			owned[m.Layout.Primary(st)]++
		}
		strips += m.Strips()
	}
	limit := (strips+d-1)/d + int64(recommended(t, s).R)
	for srv, n := range owned {
		if n > limit {
			t.Errorf("server %d owns %d primaries, over ⌈%d/%d⌉ + r = %d (per server %v)", srv, n, strips, d, limit, owned)
		}
	}
	checkGrid(t, s, "hot0", g)
}
