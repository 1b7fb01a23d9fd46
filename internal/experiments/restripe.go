package experiments

import (
	"fmt"

	"github.com/hpcio/das/internal/core"
	"github.com/hpcio/das/internal/fault"
	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/restripe"
	"github.com/hpcio/das/internal/sim"
)

// restripeVariants are the schemes the restripe experiment compares, all
// over the unimproved round-robin layout, in table order.
var restripeVariants = []struct {
	name      string
	scheme    core.Scheme
	restriped bool
}{
	{"NAS", core.NAS, false},
	{"NAS+restripe", core.NAS, true},
	{"DAS-static", core.DAS, false},
	{"DAS+restripe", core.DAS, true},
}

// restripeExperiment compares NAS and DAS with and without the online
// restriping subsystem on the repeated dependent-kernel workload
// (flow-routing over the unimproved round-robin layout): round one pays
// the dependent-halo traffic that existing active storage systems always
// pay, the migrator notices and moves the file to the grouped-replicated
// distribution in the background — the first round drains it, so the
// post-migration rounds measure the result — and every later round finds
// its dependence local; for DAS, the previously rejected offload flips to
// an accepted one. Every round of every variant, and the migrated input
// itself, is verified byte-identical to the sequential reference.
//
// The last scenario interrupts a live migration with a storage-server
// crash and verifies the cursor-based resume: small batches keep the
// migration slow enough for the crash to land mid-copy, a foreground
// round executes while the crash interrupts both it and the background
// migration, the migration parks while the server is down, resumes after
// the restart, and converges.
var restripeExperiment = Experiment{
	ID: "restripe",
	Scenarios: func(c Config) []Scenario {
		var cells []Scenario
		for _, v := range restripeVariants {
			s := c.Cell(v.scheme, "flow-routing", c.SizesGB[0], c.Nodes)
			s.Place = Placement{}
			s.Steps = Rounds(c.RestripeRounds, s.Steps[0])
			if v.restriped {
				s.Restripe = &restripe.Config{}
				s.Steps[0].Drain = true
			}
			cells = append(cells, s)
		}
		crash := c.Cell(core.NAS, "flow-routing", c.SizesGB[0], c.Nodes)
		crash.Restripe = &restripe.Config{MovesPerTick: 2, RetryDelay: 5 * sim.Millisecond}
		crash.Faults = fault.Plan{Events: []fault.Event{
			{At: 200 * sim.Microsecond, Kind: fault.Crash, Server: crashedServer},
			{At: 40 * sim.Millisecond, Kind: fault.Restart, Server: crashedServer},
		}}
		crash.Steps = []Step{{Scheme: core.NAS}, {Kind: InstallFaults}, {Scheme: core.NAS, Drain: true}}
		// Reading the trigger round back before the crash would give the
		// migration time to finish unharmed.
		crash.VerifyLast = true
		return append(cells, crash)
	},
	Claims: func(c Config, recs []Record) (*Result, error) {
		rounds := c.RestripeRounds
		r := &Result{
			ID:     "restripe",
			Title:  fmt.Sprintf("Online restriping over %d rounds (flow-routing, %d GB)", rounds, c.SizesGB[0]),
			XLabel: "round",
			YLabel: "dependent-halo bytes fetched",
		}
		remote := func(step StepRecord) int64 { return step.Stats.Int("remote_bytes") }
		for i, v := range restripeVariants {
			for round, step := range recs[i].Steps {
				r.Add(v.name, float64(round+1), float64(remote(step)))
			}
		}
		nas, nasRe, dasRe := recs[0], recs[1], recs[3]
		last := rounds - 1
		if b := remote(nasRe.Steps[last]); b != 0 {
			return nil, fmt.Errorf("restripe: post-migration NAS round still fetched %d dependent bytes", b)
		}
		if !dasRe.Steps[last].Offloaded || dasRe.Steps[0].Offloaded {
			return nil, fmt.Errorf("restripe: DAS offload decision did not flip (round 0 %v, round %d %v)",
				dasRe.Steps[0].Offloaded, last, dasRe.Steps[last].Offloaded)
		}
		r.Notes = append(r.Notes,
			fmt.Sprintf("NAS fetches %s of dependent-halo bytes per round forever; with online restriping the first round's %s drop to zero after the background migration (%d strips, %s copied, converged in %.3fs simulated)",
				metrics.FormatBytes(remote(nas.Steps[0])), metrics.FormatBytes(remote(nasRe.Steps[0])),
				nasRe.Counters.Int("restripe.strips_moved"), metrics.FormatBytes(nasRe.Counters.Int("restripe.bytes_copied")),
				nasRe.Steps[0].Stats["drain_seconds"]),
			fmt.Sprintf("DAS over the static round-robin layout rejects the offload every round; after the online migration to %s the same request offloads with fully local dependence",
				dasRe.Layout),
			"all rounds of all variants, and the migrated input itself, verified byte-identical to the sequential reference")

		resumes := recs[len(restripeVariants)].Counters.Int("restripe.resumes")
		if resumes == 0 {
			return nil, fmt.Errorf("restripe crash: migration completed without resuming a parked move")
		}
		r.Notes = append(r.Notes,
			fmt.Sprintf("crash demo: server %d down mid-migration; %d parked moves resumed from the cursor after restart, migration completed, outputs byte-identical",
				crashedServer, resumes))
		return r, nil
	},
}
