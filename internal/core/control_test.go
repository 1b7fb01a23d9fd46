package core

import (
	"testing"

	"github.com/hpcio/das/internal/cache"
	"github.com/hpcio/das/internal/control"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/restripe"
	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/workload"
)

// TestControlIgnoresMigrationTraffic is the regression test for the old
// dueling-loops bug: a background migration used to flood the tuning
// window with its own copy latencies, the cache manager read that as a
// hot server and pinned strips, and the migrator promptly invalidated
// them. Now migration traffic is tagged at the pfs layer and excluded
// from tuning — so a migration on an otherwise-idle system must cause
// ZERO controller actions and ZERO cache manager actions.
func TestControlIgnoresMigrationTraffic(t *testing.T) {
	g := workload.Terrain(testW, testH, 7)
	s, err := NewSystem(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Ingest before the controller exists so the setup writes are not
	// sampled: the controller then sees ONLY the migration's traffic.
	if _, err := s.IngestGrid("in", g, layout.NewRoundRobin(s.FS.Servers()), testStrip); err != nil {
		t.Fatal(err)
	}
	if err := s.EnableCache(cache.Config{BudgetBytes: 64 << 10}); err != nil {
		t.Fatal(err)
	}
	if err := s.EnableControl(control.Config{}); err != nil {
		t.Fatal(err)
	}
	if err := s.EnableRestripe(restripe.Config{MinObservedBytes: 1}); err != nil {
		t.Fatal(err)
	}
	// Take the controller's admission gate and cool-down watcher off the
	// migrator on purpose, so the migration runs unconditionally and the
	// only defense left is the migration tag itself.
	s.Restripe.SetAdmission(nil)
	s.Restripe.SetWatcher(nil)

	pat, ok := s.Features.Lookup("flow-routing")
	if !ok {
		t.Fatal("flow-routing pattern missing")
	}
	m, ok := s.FS.Meta("in")
	if !ok {
		t.Fatal("ingested file missing")
	}
	s.Restripe.Observe("in", pat, predictParams(m), 1<<20)
	if s.Restripe.ActiveCount() == 0 {
		t.Fatal("migration was not admitted — the test exercises nothing")
	}
	converged, _, err := s.DrainRestripe(60 * sim.Second)
	if err != nil || !converged {
		t.Fatalf("migration did not converge: %v", err)
	}

	ctl := s.Control
	if got := s.Clu.Counters.Get("control.migration_samples_excluded"); got == 0 {
		t.Fatal("migration produced no tagged samples — the tag is not wired")
	}
	var tuning, rpc int64
	for _, st := range ctl.Stats() {
		tuning, rpc = tuning+st.FetchCount, rpc+st.RPCCount
	}
	if tuning != 0 {
		t.Errorf("migration leaked %d samples into the tuning sketches", tuning)
	}
	if rpc != 0 {
		t.Errorf("migration produced %d untagged RPC samples", rpc)
	}
	if acts := ctl.Actions(); len(acts) != 0 {
		t.Errorf("controller acted on migration traffic: %v", acts)
	}
	if acts := s.Cache.Actions(); len(acts) != 0 {
		t.Errorf("cache manager acted on migration traffic: %v", acts)
	}
}
