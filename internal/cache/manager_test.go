package cache

import (
	"slices"
	"testing"

	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/sim"
)

func testConfig() Config { return Config{BudgetBytes: 1024} }

func TestConfigNormalizeDefaultsAndErrors(t *testing.T) {
	cfg, err := Config{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.BudgetBytes <= 0 {
		t.Errorf("bad defaults: %+v", cfg)
	}
	if _, err := (Config{BudgetBytes: -1}).Normalize(); err == nil {
		t.Error("negative budget accepted")
	}
	if _, err := NewManager(sim.NewEngine(), 1, Config{BudgetBytes: -1}, nil, metrics.NewRegistry()); err == nil {
		t.Error("NewManager accepted a negative budget")
	}
}

// TestManagerPromotesHotStripsOnSlowFetches is the promote pass the
// controller runs on a server whose fetch tail crossed LatencyHigh: the
// strips the window hit, most hits first, then the strips it fetched, by
// file and strip — four per pass.
func TestManagerPromotesHotStripsOnSlowFetches(t *testing.T) {
	m, err := NewManager(sim.NewEngine(), 2, testConfig(), nil, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	for s := int64(1); s <= 6; s++ {
		m.RecordFetch(0, "f", s, 0, buf, 200*sim.Microsecond)
	}
	for _, s := range []int64{5, 5, 3} {
		if _, ok := m.Get(0, "f", s, 0, 64); !ok {
			t.Errorf("warm lookup for strip %d missed", s)
		}
	}
	if n := m.PromoteHotServer(0); n != 4 {
		t.Fatalf("first pass pinned %d strips, want 4", n)
	}
	var order []int64
	for _, a := range m.Actions() {
		if a.Kind != "promote" || a.Server != 0 {
			t.Errorf("unexpected action %v", a)
		}
		order = append(order, a.Strip)
	}
	if want := []int64{5, 3, 1, 2}; !slices.Equal(order, want) {
		t.Errorf("promotion order %v, want %v", order, want)
	}
	if m.Server(0).Pinned("f", 4) || m.Server(0).Pinned("f", 6) {
		t.Error("a pass pinned more than four strips")
	}
	if n := m.PromoteHotServer(0); n != 2 {
		t.Errorf("second pass pinned %d strips, want the 2 left", n)
	}
	if m.Server(1).UsedBytes() != 0 || m.PromoteHotServer(1) != 0 {
		t.Error("idle server's cache touched")
	}
}

// TestManagerDemotesIdlePinsWhenFetchesRunFast is the demote pass the
// controller runs on a server whose fetch tail fell to LatencyLow: pins
// the window did not hit are released, pins it hit stay.
func TestManagerDemotesIdlePinsWhenFetchesRunFast(t *testing.T) {
	m, err := NewManager(sim.NewEngine(), 1, testConfig(), nil, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	m.RecordFetch(0, "f", 1, 0, buf, 500*sim.Microsecond)
	m.RecordFetch(0, "f", 2, 0, buf, 500*sim.Microsecond)
	if n := m.PromoteHotServer(0); n != 2 {
		t.Fatalf("setup pass pinned %d strips, want 2", n)
	}
	m.ResetWindows()
	m.RecordFetch(0, "f", 9, 0, buf, sim.Microsecond) // fast traffic elsewhere
	m.Get(0, "f", 2, 0, 64)                           // strip 2 stays busy
	if n := m.DemoteIdleServer(0); n != 1 {
		t.Errorf("demote pass unpinned %d strips, want 1", n)
	}
	if m.Server(0).Pinned("f", 1) {
		t.Error("idle pin survived a fast window")
	}
	if !m.Server(0).Pinned("f", 2) {
		t.Error("a pin the window hit was demoted")
	}
	acts := m.Actions()
	if len(acts) != 3 || acts[2].Kind != "demote" || acts[2].Strip != 1 {
		t.Errorf("actions = %v, want two promotes then demote of strip 1", acts)
	}
}

// TestManagerDemotesInFileStripOrder: a demote pass unpins a window's idle
// pins in (file, strip) order, whatever order the cache's map yields them
// in, so the action log — which the determinism tests and the reports
// read — is the same on every run.
func TestManagerDemotesInFileStripOrder(t *testing.T) {
	demotes := func() []Action {
		t.Helper()
		m, err := NewManager(sim.NewEngine(), 1, testConfig(), nil, metrics.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64)
		for _, k := range []Key{{"b", 3}, {"a", 7}, {"b", 1}, {"a", 2}, {"c", 5}, {"a", 4}} {
			m.RecordFetch(0, k.File, k.Strip, 0, buf, 500*sim.Microsecond)
		}
		for m.PromoteHotServer(0) > 0 {
		}
		m.ResetWindows()
		if n := m.DemoteIdleServer(0); n != 6 {
			t.Fatalf("demote pass unpinned %d strips, want all 6 idle pins", n)
		}
		var out []Action
		for _, a := range m.Actions() {
			if a.Kind == "demote" {
				out = append(out, a)
			}
		}
		return out
	}
	first := demotes()
	var order []Key
	for _, a := range first {
		order = append(order, Key{File: a.File, Strip: a.Strip})
	}
	if want := []Key{{"a", 2}, {"a", 4}, {"a", 7}, {"b", 1}, {"b", 3}, {"c", 5}}; !slices.Equal(order, want) {
		t.Errorf("demotion order %v, want %v", order, want)
	}
	if second := demotes(); !slices.Equal(first, second) {
		t.Errorf("two identical runs demoted differently:\n%v\n%v", first, second)
	}
}

func TestManagerHitRateEstimatePerFile(t *testing.T) {
	eng := sim.NewEngine()
	m, err := NewManager(eng, 1, testConfig(), nil, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if m.HitRateEstimate("f") != 0 {
		t.Error("estimate nonzero before observations")
	}
	buf := make([]byte, 100)
	m.RecordFetch(0, "f", 1, 0, buf, sim.Microsecond)
	if m.HitRateEstimate("f") != 0 {
		t.Error("estimate nonzero after a miss only")
	}
	m.Get(0, "f", 1, 0, 100)
	if got := m.HitRateEstimate("f"); got != 0.5 {
		t.Errorf("estimate = %v, want 0.5", got)
	}
	if m.HitRateEstimate("g") != 0 {
		t.Error("another file's estimate leaked")
	}
}

func TestManagerInvalidateBroadcasts(t *testing.T) {
	eng := sim.NewEngine()
	m, err := NewManager(eng, 3, testConfig(), nil, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	for srv := 0; srv < 3; srv++ {
		m.RecordFetch(srv, "f", 1, 0, buf, sim.Microsecond)
		m.RecordFetch(srv, "f", 2, 0, buf, sim.Microsecond)
	}
	m.InvalidateStrip("f", 1)
	for srv := 0; srv < 3; srv++ {
		if m.Server(srv).Holds("f", 1) {
			t.Errorf("server %d kept the invalidated strip", srv)
		}
		if !m.Server(srv).Holds("f", 2) {
			t.Errorf("server %d lost an unrelated strip", srv)
		}
	}
	m.InvalidateFile("f")
	for srv := 0; srv < 3; srv++ {
		if m.Server(srv).UsedBytes() != 0 {
			t.Errorf("server %d kept bytes after file invalidation", srv)
		}
	}
}

func TestManagerRestartPurgeViaIncarnation(t *testing.T) {
	eng := sim.NewEngine()
	incs := []uint64{1, 1}
	m, err := NewManager(eng, 2, testConfig(), func(srv int) uint64 { return incs[srv] }, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	m.RecordFetch(0, "f", 1, 0, buf, sim.Microsecond)
	m.RecordFetch(1, "f", 2, 0, buf, sim.Microsecond)
	incs[0] = 2 // server 0 restarts
	if m.Server(0).Holds("f", 1) {
		t.Error("server 0's cache survived its restart")
	}
	if !m.Server(1).Holds("f", 2) {
		t.Error("server 1's cache purged by server 0's restart")
	}
}

func TestManagerDiscardsWindowAcrossRestart(t *testing.T) {
	// A crash+restart mid-window discards the pre-crash window with the
	// cache memory: neither its hits nor the strips it fetched may reach the
	// controller's next signal or promote pass.
	incs := []uint64{1}
	m, err := NewManager(sim.NewEngine(), 1, testConfig(), func(int) uint64 { return incs[0] }, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	m.RecordFetch(0, "f", 1, 0, buf, 10*sim.Millisecond) // slow, pre-crash
	m.Get(0, "f", 1, 0, 64)
	m.Get(0, "f", 1, 0, 64)
	incs[0] = 2                                       // crash + restart mid-window
	m.RecordFetch(0, "f", 2, 0, buf, sim.Microsecond) // post-restart
	m.Get(0, "f", 2, 0, 64)
	if got := m.WindowHits(0); got != 1 {
		t.Errorf("WindowHits = %d after the restart, want only the post-restart hit", got)
	}
	if n := m.PromoteHotServer(0); n != 1 {
		t.Errorf("promote pass pinned %d strips, want 1", n)
	}
	if m.Server(0).Pinned("f", 1) || !m.Server(0).Pinned("f", 2) {
		t.Error("promote pass saw the pre-crash window")
	}
}

// TestManagerMovesPinsOnlyWhenTold: the manager has no trigger of its own.
// A slow window pins nothing however long the engine runs; the latency
// sink sees every fetch, and the controller's passes and window resets are
// what move the pins.
func TestManagerMovesPinsOnlyWhenTold(t *testing.T) {
	eng := sim.NewEngine()
	m, err := NewManager(eng, 1, testConfig(), nil, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	var sunk []sim.Time
	m.SetLatencySink(func(srv int, lat sim.Time) { sunk = append(sunk, lat) })
	buf := make([]byte, 64)
	eng.Spawn("workload", func(p *sim.Proc) {
		m.RecordFetch(0, "f", 1, 0, buf, 500*sim.Microsecond)
		m.Get(0, "f", 1, 0, 64)
		p.Sleep(sim.Second)
		if acts := m.Actions(); len(acts) != 0 {
			t.Errorf("pins moved with no controller: %v", acts)
		}
		if m.WindowHits(0) != 1 {
			t.Errorf("WindowHits = %d, want 1", m.WindowHits(0))
		}
		if n := m.PromoteHotServer(0); n != 1 {
			t.Errorf("PromoteHotServer = %d, want 1", n)
		}
		m.ResetWindows()
		if m.WindowHits(0) != 0 {
			t.Error("ResetWindows left window hits behind")
		}
		if n := m.DemoteIdleServer(0); n != 1 {
			t.Errorf("DemoteIdleServer = %d, want 1", n)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sunk) != 1 || sunk[0] != 500*sim.Microsecond {
		t.Errorf("latency sink saw %v, want one 500µs sample", sunk)
	}
	acts := m.Actions()
	if len(acts) != 2 || acts[0].Kind != "promote" || acts[1].Kind != "demote" {
		t.Errorf("actions = %v, want a promote then a demote", acts)
	}
}

func TestManagerBandHeatRanksFiles(t *testing.T) {
	eng := sim.NewEngine()
	m, err := NewManager(eng, 1, testConfig(), nil, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 100)
	m.RecordFetch(0, "cold", 1, 0, buf, sim.Microsecond)
	m.AddBandHeat("piped", 500)
	m.AddBandHeat("piped", 250)
	m.AddBandHeat("piped", 0)  // no-op
	m.AddBandHeat("piped", -8) // no-op
	if got := m.FileBandBytes("piped"); got != 750 {
		t.Errorf("FileBandBytes = %d, want 750", got)
	}
	// Band heat ranks files but never biases the predictor's hit fraction.
	if m.HitRateEstimate("piped") != 0 {
		t.Error("band heat leaked into the hit-rate estimate")
	}
	top := m.TopFiles(0)
	if len(top) != 2 || top[0].File != "piped" || top[0].BandBytes != 750 || top[1].File != "cold" {
		t.Errorf("TopFiles = %+v, want piped (750 band bytes) ahead of cold", top)
	}
}
