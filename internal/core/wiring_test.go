package core

import (
	"fmt"
	"testing"

	"github.com/hpcio/das/internal/cache"
	"github.com/hpcio/das/internal/control"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/restripe"
	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/workload"
)

// TestEnableOrderDoesNotMatter deploys cache, restripe and control in all
// six orders on the control tests' scenario and holds every order to the
// same run: the hooks between the three are derived from what is deployed,
// not from who was enabled first. (With the controller enabled before the
// cache, the cache used to keep its own mean-window trigger and the
// controller saw no fetch samples; enabled before the migrator, it neither
// gated nor watched it.)
func TestEnableOrderDoesNotMatter(t *testing.T) {
	g := workload.Terrain(testW, testH, 7)
	run := func(order string) string {
		s, err := NewSystem(smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, err := s.IngestGrid("in", g, layout.NewRoundRobin(s.FS.Servers()), testStrip); err != nil {
			t.Fatal(err)
		}
		for _, sub := range order {
			switch sub {
			case 'c':
				// Four strips per server: fetches keep flowing round after
				// round, so the controller has a tail to act on.
				err = s.EnableCache(cache.Config{BudgetBytes: 4 * testStrip})
			case 'r':
				// Three rounds of halo traffic: the controller pins first,
				// the migration is asked for in the fourth.
				err = s.EnableRestripe(restripe.Config{MinObservedBytes: 150000})
			case 'p':
				// A threshold every fetch overshoots, in windows a round's
				// burst of fetches fits in.
				err = s.EnableControl(control.Config{
					LatencyHigh: 2 * sim.Microsecond, LatencyLow: sim.Microsecond, SampleEvery: 10 * sim.Millisecond,
				})
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		for round := 0; round < 5; round++ {
			req := Request{Op: "flow-routing", Input: "in", Output: fmt.Sprintf("out.%d", round), Scheme: NAS}
			if _, err := s.Execute(req); err != nil {
				t.Fatal(err)
			}
			if converged, _, err := s.DrainRestripe(60 * sim.Second); err != nil || !converged {
				t.Fatalf("order %s round %d: migration did not converge: %v", order, round, err)
			}
		}
		reg := s.Clu.Counters
		samples, allowed := s.Control.MergedFetchSketch().Count(), reg.Get("control.admissions_allowed")
		if samples == 0 || len(s.Cache.Actions()) == 0 || allowed == 0 || reg.Get("restripe.completed") == 0 {
			t.Fatalf("order %s: the scenario exercises nothing: %d fetch samples, %d cache actions, %d admissions, %s",
				order, samples, len(s.Cache.Actions()), allowed, reg.Format("restripe."))
		}
		return fmt.Sprintf("events=%d\nstats=%v\ncache=%v\ncounters=%s",
			s.Clu.Eng.Events(), s.Control.Stats(), s.Cache.Actions(), reg.Format(""))
	}
	want := run("crp")
	for _, order := range []string{"cpr", "rcp", "rpc", "pcr", "prc"} {
		if got := run(order); got != want {
			t.Errorf("order %s differs from crp:\n got %s\nwant %s", order, got, want)
		}
	}
}
