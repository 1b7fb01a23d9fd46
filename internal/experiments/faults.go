package experiments

import (
	"fmt"

	"github.com/hpcio/das/internal/core"
	"github.com/hpcio/das/internal/fault"
	"github.com/hpcio/das/internal/sim"
)

// restartDelay is how long a crashed server stays down in the schemes that
// need it back: well inside the PFS down-retry budget, so blocked requests
// bridge the outage instead of failing.
const restartDelay = 80 * sim.Millisecond

// crashedServer is the storage server the fault experiments lose.
const crashedServer = 1

// crashMidRun makes a scenario lose crashedServer at half its healthy
// time, and get it back restartDelay later when restart is set.
func crashMidRun(s Scenario, restart bool) Scenario {
	s.Faults = fault.Plan{Events: []fault.Event{{Kind: fault.Crash, Server: crashedServer}}}
	if restart {
		s.Faults.Events = append(s.Faults.Events, fault.Event{At: restartDelay, Kind: fault.Restart, Server: crashedServer})
	}
	s.FaultsFromHalfHealthy = true
	s.Steps = append([]Step{{Kind: InstallFaults}}, s.Steps...)
	return s
}

// mirrored places a scenario's input on the fully mirrored grouped layout
// (halo = r) every strip survives one crash under. Full mirroring always
// moves more replica-maintenance bytes than normal I/O would, so the
// bandwidth predictor alone would reject it; runs over it force the
// offload to measure the failover machinery itself.
func (c Config) mirrored(s Scenario) Scenario {
	s.Place = Placement{Kind: Grouped, R: c.halo(), Halo: c.halo()}
	s.Steps = append([]Step(nil), s.Steps...)
	for i := range s.Steps {
		s.Steps[i].Force = true
	}
	return s
}

// faultsExperiment compares the three schemes when a storage server is
// lost halfway through the run (flow-routing, smallest dataset). Each
// scheme keeps its natural placement, which dictates its survival story:
//
//   - TS reads round-robin data with no replicas; the server comes back
//     after restartDelay and the PFS retry layer bridges the outage.
//   - NAS offloads onto the same unreplicated placement; the crash aborts
//     the dead server's dispatch and its strips are re-dispatched once the
//     server returns (were it never to return, the run would degrade to
//     normal I/O instead — see the core fault tests).
//   - DAS uses the fully mirrored grouped layout and never gets the server
//     back: the dead server's strips are reassigned to replica holders
//     mid-run.
//
// Every faulted run's output is verified byte-identical to the sequential
// reference; the notes record the recovery actions each scheme needed.
var faultsExperiment = Experiment{
	ID: "faults",
	Scenarios: func(c Config) []Scenario {
		var cells []Scenario
		for _, scheme := range []core.Scheme{core.TS, core.NAS, core.DAS} {
			healthy := c.Cell(scheme, "flow-routing", c.SizesGB[0], c.Nodes)
			if scheme == core.DAS {
				healthy = c.mirrored(healthy)
			}
			cells = append(cells, healthy, crashMidRun(healthy, scheme != core.DAS))
		}
		return cells
	},
	Claims: func(c Config, recs []Record) (*Result, error) {
		r := &Result{
			ID:     "faults",
			Title:  "One storage-server loss mid-run (flow-routing)",
			XLabel: "scheme",
			YLabel: "execution time (s)",
		}
		for si, scheme := range []core.Scheme{core.TS, core.NAS, core.DAS} {
			healthy, crashed := recs[2*si], recs[2*si+1]
			r.Add(scheme.String()+"_healthy", float64(si), healthy.Seconds())
			r.Add(scheme.String()+"_crash", float64(si), crashed.Seconds())
			rec := crashed.Counters
			note := fmt.Sprintf("%s: retries %d, timeouts %d, failover reads %d, exec retries %d, skipped forwards %d",
				scheme, rec.Int("recovery.retries"), rec.Int("recovery.timeouts"), rec.Int("recovery.failover_reads"),
				rec.Int("recovery.exec_retries"), rec.Int("recovery.skipped_forwards"))
			if step := crashed.Steps[0]; step.Degraded {
				note += "; degraded: " + step.DegradedReason
			}
			r.Notes = append(r.Notes, note)
		}
		r.Notes = append(r.Notes,
			fmt.Sprintf("server %d crashes at half the scheme's healthy time; TS/NAS get it back %v later, DAS never does", crashedServer, restartDelay),
			"all crashed-run outputs verified byte-identical to the sequential reference",
			fmt.Sprintf("DAS rides grouped-replicated(r=halo=%d): full mirroring, forced offload (see DESIGN.md)", c.halo()))
		return r, nil
	},
}
