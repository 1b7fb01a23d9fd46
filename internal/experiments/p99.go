package experiments

import (
	"fmt"

	"github.com/hpcio/das/internal/cache"
	"github.com/hpcio/das/internal/control"
	"github.com/hpcio/das/internal/core"
	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/restripe"
	"github.com/hpcio/das/internal/sim"
)

// p99CacheBudget sizes the per-server halo cache to 2× the server's
// share of the dataset — about half its dependent working set, which
// measures 3-4× the share for the 8-neighbor kernels (each owned strip
// pulls whole-strip ranges from both neighbors, and each strip is
// pulled by both sides). Keeping the budget well under the working set
// is what makes the curve meaningful: the unpinned remainder cycles
// through LRU without ever re-hitting (the access is one pass per
// round), so only controller-pinned strips are served locally, the hit
// rate tracks the pin count, and fetch traffic persists at every scale
// so the plateau is an equilibrium rather than an artifact of the
// working set fitting.
func p99CacheBudget(sizeGB, servers int) int64 {
	per := int64(sizeGB) * BytesPerPaperGB / int64(servers)
	if b := per * 2; b > 512<<10 {
		return b
	}
	return 512 << 10
}

// p99Control holds thresholds calibrated to the simulated platform's
// fetch-latency scale: windows wide enough to collect a quorum of samples,
// the hysteresis band bracketing the observed distribution. Storage
// servers fetch a run's halo while the run before it computes, so on the
// default cost model a dependent-strip fetch takes 2.75 ms at least, p50 ≈
// 4.5 ms, p90 ≈ 5.8 ms and p99 ≈ 7.2 ms at -quick (5.0 / 7.1 / 8.1 ms at
// the default size), and a server completes one about every 3 ms. A 20 ms
// window therefore holds about six samples per server (the quorum is
// four) and its p99 is its slowest sample, near the distribution's p90;
// LatencyHigh sits between the median and that, LatencyLow below the
// floor. The window is also the widest that lets the controller act
// within one round of the smallest cell: startup plus the two windows a
// promotion needs is 60 ms of its 70 ms. The paper-default 500µs
// thresholds sit far below this cost model's fetch floor and would read
// every window as hot.
var p99Control = control.Config{
	SampleEvery: 20 * sim.Millisecond,
	LatencyHigh: 5 * sim.Millisecond,
	LatencyLow:  sim.Millisecond,
}

var p99Variants = []string{"controlled", "controlled+restripe"}

// p99Experiment reproduces DynamicCache's replica-count-vs-p99 curve on
// the unified controller: a dependent kernel over round-robin, a halo
// cache too small for the working set, and the controller pinning
// replicas as the observed fetch tail crosses the threshold. Two variants
// run — the controlled cache alone, and the controlled cache with online
// restriping behind the controller's admission gate and cool-down, each
// round letting an in-flight migration finish so its strip flips and
// cool-downs land in that round's numbers. Both must CONVERGE: after some
// round, zero further controller actions and zero further restripe
// activity (no promote/demote or migrate/re-migrate oscillation). Every
// round's output is verified against the sequential reference, and every
// cell runs twice to prove the record byte-identical.
var p99Experiment = Experiment{
	ID:       "p99",
	Replayed: true,
	Scenarios: func(c Config) []Scenario {
		var cells []Scenario
		for _, name := range p99Variants {
			s := c.Cell(core.NAS, "flow-routing", c.SizesGB[0], c.Nodes)
			s.Cache = &cache.Config{BudgetBytes: p99CacheBudget(c.SizesGB[0], c.Nodes/2)}
			if name == "controlled+restripe" {
				s.Restripe = &restripe.Config{}
			}
			s.Control = &p99Control
			s.Steps = Rounds(c.P99Rounds, Step{Scheme: core.NAS, Drain: true})
			cells = append(cells, s)
		}
		return cells
	},
	Claims: func(c Config, recs []Record) (*Result, error) {
		rounds := c.P99Rounds
		r := &Result{
			ID:     "p99",
			Title:  fmt.Sprintf("Unified p99 controller over %d rounds (flow-routing, %d GB)", rounds, c.SizesGB[0]),
			XLabel: "round",
			YLabel: "fetch p99 (ms) / pinned replicas",
		}
		for i, name := range p99Variants {
			steps, totals := recs[i].Steps, recs[i].Counters
			for round, step := range steps {
				r.Add(name+" p99(ms)", float64(round+1), sim.Time(step.Stats.Int("fetch_p99_ns")).Seconds()*1e3)
				r.Add(name+" pinned", float64(round+1), step.Stats["pinned_replicas"])
			}
			converged := convergedRound(steps)
			promotions, demotions := totals.Int("control.promotions"), totals.Int("control.demotions")
			if rounds-converged < 2 {
				return nil, fmt.Errorf("p99 %s: controller never converged (%d actions across %d rounds)",
					name, promotions+demotions, rounds)
			}
			r.Notes = append(r.Notes, fmt.Sprintf(
				"%s: converged after round %d (%d promotions, %d demotions, %d cool-down deferrals); final cluster p99 %v",
				name, converged, promotions, demotions, totals.Int("control.cooldown_suppressed"),
				sim.Time(totals.Int("control.cluster_p99_ns"))))
		}
		norm, err := p99Control.Normalize()
		if err != nil {
			return nil, err
		}
		r.Notes = append(r.Notes,
			fmt.Sprintf("thresholds: high %v / low %v (p%d), cool-down %v, cache %s per server",
				norm.LatencyHigh, norm.LatencyLow, control.Percentile, norm.Cooldown,
				metrics.FormatBytes(p99CacheBudget(c.SizesGB[0], c.Nodes/2))),
			"all rounds of both variants verified byte-identical to the sequential reference",
			"report byte-identical across two full replays")
		return r, nil
	},
}

// convergedRound returns the last round (1-based) that saw a controller
// action or any restripe activity; a controlled run has converged when at
// least two quiet rounds follow it.
func convergedRound(steps []StepRecord) int {
	converged := 1
	for i := 1; i < len(steps); i++ {
		cur, pre := steps[i].Stats, steps[i-1].Stats
		for _, name := range []string{"control_actions", "restripe_planned", "restripe_completed"} {
			if cur[name] != pre[name] {
				converged = i + 1
			}
		}
	}
	return converged
}
