package main

import (
	"fmt"
	"io"

	"github.com/hpcio/das/internal/cache"
	"github.com/hpcio/das/internal/control"
	"github.com/hpcio/das/internal/core"
	"github.com/hpcio/das/internal/experiments"
	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/restripe"
	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/tenants"
)

// The demo raster: a small synthetic terrain, 512×256 elements — one
// simulated GB (1 MiB) — in 64 KiB strips.
const (
	demoWidth, demoHeight = 512, 256
	demoSizeGB            = 1
	demoStripSize         = 64 * 1024
)

// demo is the short offloaded workload behind -cache, -restripe and
// -control: flow-routing over the demo terrain on round-robin placement,
// repeated as NAS rounds (zero rounds selects the report's default), each
// verified against the sequential reference. The report prints from the
// live platform before it closes.
func demo(servers, rounds, defaultRounds int, adapt func(*experiments.Scenario), report func(*experiments.Live, experiments.Record)) error {
	if rounds <= 0 {
		rounds = defaultRounds
	}
	s := experiments.Scenario{
		Nodes:  2 * servers,
		SizeGB: demoSizeGB, Width: demoWidth, StripSize: demoStripSize, Seed: 1,
		Op:    "flow-routing",
		Steps: experiments.Rounds(rounds, experiments.Step{Scheme: core.NAS}),
	}
	adapt(&s)
	_, err := experiments.Config{}.RunLive(s, nil, report)
	return err
}

func demoHeader(w io.Writer, title string, servers int, rec experiments.Record) {
	fmt.Fprintf(w, "%s: flow-routing on %dx%d terrain, %d servers, %d rounds\n",
		title, demoWidth, demoHeight, servers, len(rec.Steps))
}

// cacheReport runs the demo with the halo-strip cache enabled (repeated
// rounds, so the cache warms) and prints each server's cache stats and the
// cluster-wide counters. Without the controller nothing is pinned; -control
// shows the pins it moves.
func cacheReport(w io.Writer, servers int, rounds int) error {
	return demo(servers, rounds, 3,
		func(s *experiments.Scenario) { s.Cache = &cache.Config{} },
		func(sys *experiments.Live, rec experiments.Record) {
			demoHeader(w, "halo-strip cache demo", servers, rec)
			fmt.Fprintf(w, "budget %s per server, LRU eviction\n\n", metrics.FormatBytes(sys.Cache.Config().BudgetBytes))
			const size = demoSizeGB * experiments.BytesPerPaperGB
			fmt.Fprintf(w, "input: %s in %d strips\n", metrics.FormatBytes(size), size/demoStripSize)

			for _, s := range sys.Cache.Stats() {
				fmt.Fprintf(w, "%s\n", s.String())
			}
			fmt.Fprintf(w, "\ncluster: %s\n", sys.Clu.Counters.Format("cache."))
		})
}

// restripeReport runs the demo with the online restriping subsystem
// enabled, drains the background migration the first round triggers, and
// prints the migration's progress, throttle behaviour, and the per-round
// dependent-traffic trajectory.
func restripeReport(w io.Writer, servers int, rounds int) error {
	if rounds == 1 {
		rounds = 2 // one round to trigger the migration, one to meet its result
	}
	return demo(servers, rounds, 3,
		func(s *experiments.Scenario) {
			s.Restripe = &restripe.Config{}
			s.Steps[0].Drain = true
		},
		func(sys *experiments.Live, rec experiments.Record) {
			mcfg := sys.Restripe.Config()
			demoHeader(w, "online restripe demo", servers, rec)
			fmt.Fprintf(w, "trigger threshold %s observed, throttle %s in flight per server, %d moves per tick\n\n",
				metrics.FormatBytes(mcfg.MinObservedBytes), metrics.FormatBytes(mcfg.MaxInFlightBytes), mcfg.MovesPerTick)
			for round, step := range rec.Steps {
				fmt.Fprintf(w, "round %d: %s dependent-halo bytes fetched\n",
					round+1, metrics.FormatBytes(step.Stats.Int("remote_bytes")))
				if round == 0 {
					fmt.Fprintf(w, "  background migration converged in %v simulated\n",
						experiments.SimTime(step.Stats["drain_seconds"]))
				}
			}

			fmt.Fprintln(w, "\nmigrations:")
			for _, st := range sys.Restripe.Status() {
				fmt.Fprintf(w, "  %s\n", st.String())
			}
			fmt.Fprintf(w, "\ncounters: %s\n", sys.Clu.Counters.Format("restripe."))
			fmt.Fprintln(w, "events:")
			for _, ev := range sys.Restripe.Events() {
				fmt.Fprintf(w, "  %s\n", ev.String())
			}
		})
}

// controlReport runs the demo with the halo-strip cache under the unified
// p99 controller, and prints each server's latency sketches, the
// controller's sample accounting, and the percentile-triggered tuning
// actions it took.
func controlReport(w io.Writer, servers int, rounds int) error {
	return demo(servers, rounds, 4,
		func(s *experiments.Scenario) {
			// A deliberately small cache keeps fetch traffic flowing so the
			// controller has a tail to act on; the thresholds bracket the
			// demo terrain's fetch tail (~4-5 ms) so the report shows the
			// controller actually acting.
			s.Cache = &cache.Config{BudgetBytes: 256 << 10}
			s.Control = &control.Config{
				SampleEvery: 10 * sim.Millisecond,
				LatencyHigh: 3 * sim.Millisecond,
				LatencyLow:  sim.Millisecond,
			}
		},
		func(sys *experiments.Live, rec experiments.Record) {
			ctl := sys.Control
			norm := ctl.Config()
			demoHeader(w, "unified p99 controller demo", servers, rec)
			fmt.Fprintf(w, "thresholds: high %v / low %v at p%d, window %v, cool-down %v\n",
				norm.LatencyHigh, norm.LatencyLow, control.Percentile, norm.SampleEvery, norm.Cooldown)
			fmt.Fprintf(w, "cache budget %s per server\n\n", metrics.FormatBytes(sys.Cache.Config().BudgetBytes))

			var tuning, rpc int64
			for _, s := range ctl.Stats() {
				fmt.Fprintf(w, "%s\n", s.String())
				tuning, rpc = tuning+s.FetchCount, rpc+s.RPCCount
			}
			reg := sys.Clu.Counters
			fmt.Fprintf(w, "\ncluster fetch p%d: %v\n", control.Percentile, ctl.ClusterP99())
			fmt.Fprintf(w, "samples: %d tuning, %d rpc, %d migration-excluded\n",
				tuning, rpc, reg.Get("control.migration_samples_excluded"))
			allowed, denied := reg.Get("control.admissions_allowed"), reg.Get("control.admissions_denied")
			fmt.Fprintf(w, "control: %d ticks, %d actions, %d cool-down deferrals, restripe admissions %d/%d\n",
				ctl.Ticks(), len(ctl.Actions()), reg.Get("control.cooldown_suppressed"), allowed, allowed+denied)
			for _, a := range ctl.Actions() {
				fmt.Fprintf(w, "  %s\n", a.String())
			}
		})
}

// tenantsReport replays a small multi-tenant workload — Zipf-skewed
// closed-loop streams with a mid-run hot-set rotation — under admission
// control with the halo cache and unified controller live, and prints the
// per-tenant fairness picture, the per-server queue tails, and where the
// heat actually landed (engine, controller, and cache views side by
// side).
func tenantsReport(w io.Writer, servers int, streams int) error {
	s := experiments.Scenario{
		Nodes: 2 * servers,
		Tenants: &tenants.Config{
			Tenants:      streams,
			Files:        4 * servers,
			OpsPerTenant: 8,
			Seed:         42,
			Phases: []tenants.Phase{
				{FromOp: 4, Mix: tenants.Mix{Read: 60, Write: 25, Offload: 15}, Rotate: 2 * servers},
			},
			MaxQueueDepth: 12,
		},
		Cache: &cache.Config{BudgetBytes: 512 << 10},
		Control: &control.Config{
			SampleEvery: 5 * sim.Millisecond,
			LatencyHigh: 4 * sim.Millisecond,
			LatencyLow:  sim.Millisecond,
		},
		Steps: []experiments.Step{{Kind: experiments.TenantStreams}},
	}
	_, err := experiments.Config{}.RunLive(s, nil, func(sys *experiments.Live, rec experiments.Record) {
		eng := sys.Tenants
		norm := eng.Config()
		tot := eng.Totals()
		fair := eng.Fairness()
		fmt.Fprintf(w, "multi-tenant demo: %d streams x %d ops over %d files (Zipf %.2f), %d servers, queue bound %d\n",
			norm.Tenants, norm.OpsPerTenant, norm.Files, norm.ZipfSkew, servers, norm.MaxQueueDepth)
		fmt.Fprintf(w, "elapsed %v: %d ops (%d reads, %d writes, %d offloads), %d shed, %d deferrals, %s moved\n",
			rec.Steps[0].SimTime(), tot.Ops, tot.Reads, tot.Writes, tot.Offloads, tot.Sheds, tot.Deferrals,
			metrics.FormatBytes(tot.Bytes))
		fmt.Fprintf(w, "fairness: %d tenants, per-tenant p99 %v .. %v (spread %v)\n\n",
			fair.Tenants, sim.Time(fair.MinP99Nanos), sim.Time(fair.MaxP99Nanos), sim.Time(fair.SpreadNanos))

		fmt.Fprintf(w, "per-server queue depth (sampled at arrival):\n")
		for _, q := range eng.QueueStats() {
			fmt.Fprintf(w, "  server %2d: %6d samples  p50 %3d  p99 %3d  max %3d  sheds %d\n",
				q.Server, q.Samples, q.P50, q.P99, q.Max, q.Sheds)
		}

		fmt.Fprintf(w, "\nhottest files (engine ops | controller p99 | cache bytes):\n")
		heat := make(map[string]cache.FileHeat)
		for _, h := range sys.Cache.TopFiles(0) {
			heat[h.File] = h
		}
		ctlStats := make(map[string]control.FileStat)
		for _, s := range sys.Control.FileStats() {
			ctlStats[s.File] = s
		}
		for _, f := range eng.TopFiles(5) {
			line := fmt.Sprintf("  %-12s %4d ops", f.File, f.Ops)
			if s, ok := ctlStats[f.File]; ok {
				line += fmt.Sprintf("  p99 %v", sim.Time(s.P99))
			}
			if h, ok := heat[f.File]; ok {
				line += fmt.Sprintf("  cache hit %s / miss %s",
					metrics.FormatBytes(h.HitBytes), metrics.FormatBytes(h.MissBytes))
			}
			fmt.Fprintln(w, line)
		}
	})
	return err
}
