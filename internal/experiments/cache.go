package experiments

import (
	"fmt"

	"github.com/hpcio/das/internal/cache"
	"github.com/hpcio/das/internal/core"
	"github.com/hpcio/das/internal/metrics"
)

// cacheVariants are the schemes the cache experiment compares, in table
// order.
var cacheVariants = []struct {
	name   string
	scheme core.Scheme
	cached bool
}{
	{"NAS", core.NAS, false},
	{"NAS+cache", core.NAS, true},
	{"DAS", core.DAS, false},
	{"DAS+cache", core.DAS, true},
}

// cacheExperiment compares NAS, NAS+cache, DAS, and DAS+cache on the
// Fig. 11 dependent-kernel workload (flow-routing, smallest size), run
// for several rounds over the same input so the halo-strip cache warms:
// round one fills each server's cache with the dependent strips it
// fetched, later rounds serve them locally. Every round's output is
// verified byte-identical to the sequential reference.
//
// The last scenario demonstrates the decision flip on one system: the
// input stays on the unimproved round-robin layout, where whole-strip
// dependent fetches cost as much as normal I/O moves, so the cache-blind
// predictor rejects the DAS offload and the request runs as normal I/O per
// the workflow chart. Two NAS rounds then warm the halo-strip caches, and
// the same DAS request re-decides: the discounted fetch term now beats
// normal I/O and the request offloads, serving its dependent ranges from
// cache.
var cacheExperiment = Experiment{
	ID: "cache",
	Scenarios: func(c Config) []Scenario {
		var cells []Scenario
		for _, v := range cacheVariants {
			s := c.Cell(v.scheme, "flow-routing", c.SizesGB[0], c.Nodes)
			s.Steps = Rounds(c.CacheRounds, s.Steps[0])
			if v.cached {
				s.Cache = &cache.Config{}
			}
			cells = append(cells, s)
		}
		flip := c.Cell(core.NAS, "flow-routing", c.SizesGB[0], c.Nodes)
		flip.Cache = &cache.Config{}
		// Two warm-up rounds: the first fills the caches (all misses), the
		// second hits them, producing the observed hit rate the cache-aware
		// decision consumes.
		flip.Steps = []Step{{Scheme: core.DAS}, {Scheme: core.NAS}, {Scheme: core.NAS}, {Scheme: core.DAS}}
		return append(cells, flip)
	},
	Claims: func(c Config, recs []Record) (*Result, error) {
		rounds, size := c.CacheRounds, c.SizesGB[0]
		r := &Result{
			ID:     "cache",
			Title:  fmt.Sprintf("Halo-strip cache over %d rounds (flow-routing, %d GB)", rounds, size),
			XLabel: "round",
			YLabel: "server-to-server bytes",
		}
		totals := make([]int64, len(cacheVariants))
		for i, v := range cacheVariants {
			for round, step := range recs[i].Steps {
				s2s := step.Traffic.Int("s2s")
				totals[i] += s2s
				r.Add(v.name, float64(round+1), float64(s2s))
			}
		}
		nasCache := recs[1].Counters
		r.Notes = append(r.Notes,
			fmt.Sprintf("NAS moves %s server-to-server over %d rounds; NAS+cache moves %s (%.0f%% byte hit rate)",
				metrics.FormatBytes(totals[0]), rounds,
				metrics.FormatBytes(totals[1]), 100*nasCache["cache.byte_hit_rate"]),
			"all rounds of all variants verified byte-identical to the sequential reference",
			fmt.Sprintf("cache: %s per server, LRU, no controller (nothing pinned)", metrics.FormatBytes(nasCache.Int("cache.budget_bytes"))))

		flip := recs[len(cacheVariants)].Steps
		cold, warm := flip[0], flip[len(flip)-1]
		if cold.Offloaded || !warm.Offloaded {
			return nil, fmt.Errorf("cache flip demo: expected cold reject + warm accept, got cold=%v warm=%v",
				cold.Offloaded, warm.Offloaded)
		}
		hits, fetches := warm.Stats.Int("cache_hits"), warm.Stats.Int("remote_fetches")
		r.Notes = append(r.Notes,
			fmt.Sprintf("decision flip on round-robin: cold DAS rejected (%s); after %d NAS warm-up rounds the same request offloads at %.0f%% predicted hit rate with %d of %d dependent ranges served from cache",
				cold.Reason, len(flip)-2, 100*warm.Stats["predicted_hit_frac"], hits, hits+fetches))
		return r, nil
	},
}
