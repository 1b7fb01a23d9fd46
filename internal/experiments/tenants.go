package experiments

import (
	"fmt"

	"github.com/hpcio/das/internal/cache"
	"github.com/hpcio/das/internal/control"
	"github.com/hpcio/das/internal/restripe"
	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/tenants"
)

// DefaultTenantsConfig is the full-scale multi-tenant run: over a
// thousand concurrent Zipf-skewed streams across hundreds of files, with
// a hot-set rotation a third of the way in and a read-heavy to
// write-heavy flip two thirds in. It names no seed: the experiment's
// cells take Config.Seed.
func DefaultTenantsConfig() tenants.Config {
	return tenants.Config{
		Tenants:          1024,
		Files:            256,
		StripsPerFileMin: 4,
		StripsPerFileMax: 12,
		OpsPerTenant:     15,
		ZipfSkew:         1.1,
		Mix:              tenants.Mix{Read: 70, Write: 20, Offload: 10},
		Phases: []tenants.Phase{
			{FromOp: 5, Mix: tenants.Mix{Read: 70, Write: 20, Offload: 10}, Rotate: 128},
			{FromOp: 10, Mix: tenants.Mix{Read: 25, Write: 60, Offload: 15}, Rotate: 128},
		},
		MaxQueueDepth: 24,
		// A closed loop with over a thousand streams on twelve servers is
		// oversubscribed severalfold: deferral is the normal backpressure
		// path (streams wait out bursts at the gate), and shedding is the
		// last resort after ~100 ms of sustained saturation. Pacing the
		// loop with a think time keeps the offered load heavy but not
		// degenerate.
		ThinkTime:   sim.Millisecond,
		ShedBackoff: sim.Millisecond,
		ShedRetries: 96,
	}
}

// SmokeTenantsConfig is the CI-sized variant of the same shape: small
// enough for the race detector and the bench-smoke target, still
// exercising skew, phases, admission, and every subsystem.
func SmokeTenantsConfig() tenants.Config {
	cfg := DefaultTenantsConfig()
	cfg.Tenants = 96
	cfg.Files = 32
	cfg.OpsPerTenant = 8
	cfg.Phases = []tenants.Phase{
		{FromOp: 3, Mix: tenants.Mix{Read: 70, Write: 20, Offload: 10}, Rotate: 16},
		{FromOp: 6, Mix: tenants.Mix{Read: 25, Write: 60, Offload: 15}, Rotate: 16},
	}
	cfg.MaxQueueDepth = 12
	return cfg
}

// tenants is the experiment's tenant configuration under the Config's
// one seed, normalized — or, where Normalize objects, as given, with its
// error.
func (c Config) tenants() (tenants.Config, error) {
	tcfg := c.Tenants
	tcfg.Seed = c.Seed
	n, err := tcfg.Normalize()
	if err != nil {
		return tcfg, err
	}
	return n, nil
}

// tenantsStrictScale is the stream count above which the experiment
// enforces its acceptance comparisons as hard errors; smoke-sized runs
// report the same numbers without failing on them.
const tenantsStrictScale = 512

// tenantsCacheBudget sizes the per-server halo cache for the adaptive
// variant: roughly the hot head of the Zipf distribution per server
// (128 strips ≈ a dozen hot files), a few percent of the full dataset.
func tenantsCacheBudget(tcfg tenants.Config) int64 {
	return 128 * tcfg.StripSize
}

// tenantsControl calibrates the unified controller to the tenant
// operation-latency scale (strip reads ~1.5 ms, contended offloads far
// above): the per-file admission gate opens only for files whose
// operation tail actually crosses the congestion threshold. The migrator
// beside it is tuned for many small files: a modest evidence threshold
// (one hot offload's halo traffic crosses it) and an in-flight budget that
// keeps background copies from starving the foreground streams.
var tenantsControl = control.Config{
	SampleEvery: 5 * sim.Millisecond,
	LatencyHigh: 4 * sim.Millisecond,
	LatencyLow:  sim.Millisecond,
	Cooldown:    10 * sim.Millisecond,
}

// tenantsVariants are the configurations the multi-tenant experiment
// compares, in table order. Unbounded NAS comes first: the saturation
// baseline admission is judged against.
var tenantsVariants = []struct {
	name     string
	bounded  bool // admission gate on
	planned  bool // static DAS-planned per-file layouts
	adaptive bool // cache + restripe + unified controller over round-robin
}{
	{name: "nas-unbounded"},
	{name: "nas", bounded: true},
	{name: "das-static", bounded: true, planned: true},
	{name: "das-adaptive", bounded: true, adaptive: true},
}

// tenantsExperiment runs the multi-tenant comparison: blind active
// storage over round-robin (bounded and unbounded admission), statically
// DAS-planned layouts, and the adaptive stack (halo cache + online
// restriping + unified p99 controller with per-file admission) reacting
// to the same skewed, phase-shifting streams. Every cell runs twice and
// the records must be byte-identical. At full scale the acceptance
// comparisons are enforced: admission must bound the queue tail the
// unbounded run blows through, and the adaptive stack must beat bounded
// NAS on both aggregate throughput and cross-tenant p99 spread.
var tenantsExperiment = Experiment{
	ID:       "tenants",
	Replayed: true,
	Scenarios: func(c Config) []Scenario {
		var cells []Scenario
		for _, v := range tenantsVariants {
			tcfg, _ := c.tenants() // the run reports what Normalize objects to
			if !v.bounded {
				tcfg.MaxQueueDepth = 0
			}
			s := Scenario{Nodes: c.Nodes, Seed: c.Seed, Tenants: &tcfg, Steps: []Step{{Kind: TenantStreams, Drain: true}}}
			if v.planned {
				s.Place.Kind = Planned
			}
			if v.adaptive {
				s.Cache = &cache.Config{BudgetBytes: tenantsCacheBudget(tcfg)}
				s.Restripe = &restripe.Config{MinObservedBytes: 4 * tcfg.StripSize, MaxInFlightBytes: 2 * tcfg.StripSize}
				s.Control = &tenantsControl
			}
			cells = append(cells, s)
		}
		return cells
	},
	Claims: func(c Config, recs []Record) (*Result, error) {
		tcfg, err := c.tenants()
		if err != nil {
			return nil, err
		}
		throughput := func(rec Record) float64 {
			return safeRatio(rec.Counters["tenants.bytes"], rec.Seconds()) / 1e6
		}
		unb, nas, adp := recs[0].Counters, recs[1].Counters, recs[3].Counters
		if tcfg.Tenants >= tenantsStrictScale {
			if p99 := nas.Int("tenants.queue_depth_p99"); p99 > 2*int64(tcfg.MaxQueueDepth) {
				return nil, fmt.Errorf("tenants: admission failed to bound the queue tail: p99 depth %d vs bound %d", p99, tcfg.MaxQueueDepth)
			}
			if u, n := unb.Int("tenants.queue_depth_p99"), nas.Int("tenants.queue_depth_p99"); u <= n {
				return nil, fmt.Errorf("tenants: unbounded queue p99 %d not above bounded %d — saturation never materialized", u, n)
			}
			if a, n := throughput(recs[3]), throughput(recs[1]); a <= n {
				return nil, fmt.Errorf("tenants: adaptive throughput %.2f MB/s does not beat NAS %.2f MB/s", a, n)
			}
			if a, n := adp.Int("tenants.fair_spread_ns"), nas.Int("tenants.fair_spread_ns"); a >= n {
				return nil, fmt.Errorf("tenants: adaptive p99 spread %v not below NAS %v", sim.Time(a), sim.Time(n))
			}
		}

		r := &Result{
			ID: "tenants",
			Title: fmt.Sprintf("Multi-tenant skewed streams (%d tenants, %d files, Zipf %.2f)",
				tcfg.Tenants, tcfg.Files, tcfg.ZipfSkew),
			XLabel: "variant",
			YLabel: "throughput (MB/s) / p99 spread (ms) / queue p99",
		}
		for i, v := range tenantsVariants {
			x, tot := float64(i+1), recs[i].Counters
			spread := sim.Time(tot.Int("tenants.fair_spread_ns"))
			r.Add("throughput MB/s: "+v.name, x, throughput(recs[i]))
			r.Add("p99 spread ms: "+v.name, x, spread.Seconds()*1e3)
			r.Add("queue p99: "+v.name, x, tot["tenants.queue_depth_p99"])
			r.Notes = append(r.Notes, fmt.Sprintf(
				"%s: %d ops (%d shed) in %.3fs, %.2f MB/s, queue p99 %d (max %d), tenant p99 spread %v",
				v.name, tot.Int("tenants.ops"), tot.Int("tenants.sheds"), recs[i].Seconds(), throughput(recs[i]),
				tot.Int("tenants.queue_depth_p99"), tot.Int("tenants.queue_depth_max"), spread))
		}
		r.Notes = append(r.Notes, fmt.Sprintf(
			"adaptive vs NAS: throughput x%.2f, spread x%.2f, halo bytes x%.2f (%d restripes, %d cache promotions)",
			safeRatio(throughput(recs[3]), throughput(recs[1])),
			safeRatio(adp["tenants.fair_spread_ns"], nas["tenants.fair_spread_ns"]),
			safeRatio(adp["tenants.offload_remote_bytes"], nas["tenants.offload_remote_bytes"]),
			adp.Int("restripe.completed"), adp.Int("control.promotions")),
			"report byte-identical across two full replays")
		return r, nil
	},
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
