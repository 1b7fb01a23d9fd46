package experiments

import "testing"

// TestCacheExperimentNASCacheMovesFewerBytes is the cache PR's acceptance
// criterion: on the Fig. 11 dependent-kernel workload, NAS+cache moves
// measurably fewer server-to-server bytes than NAS, every round of every
// variant stays byte-identical to the sequential reference (verified by
// the runner), and the decision-flip demo turns a rejected DAS request
// into an accepted one after warm-up.
func TestCacheExperimentNASCacheMovesFewerBytes(t *testing.T) {
	c := quick()
	c.CacheRounds = 3
	r, recs := execute(t, c, cacheExperiment)
	if len(recs) != 5 {
		t.Fatalf("got %d scenarios, want 4 variants and the flip", len(recs))
	}
	s2s := func(rec Record) (rounds []int64, total int64) {
		for _, step := range rec.Steps {
			rounds = append(rounds, step.Traffic.Int("s2s"))
			total += step.Traffic.Int("s2s")
		}
		return rounds, total
	}
	_, nasTotal := s2s(recs[0])
	cacheRounds, cacheTotal := s2s(recs[1])
	if cacheTotal >= nasTotal {
		t.Errorf("NAS+cache moved %d server-to-server bytes, not fewer than NAS's %d", cacheTotal, nasTotal)
	}
	// The warm rounds should hit: the first round misses everything, the
	// later rounds serve the same halo strips from cache.
	if recs[1].Counters.Int("cache.hits") == 0 {
		t.Error("NAS+cache recorded no cache hits across warm rounds")
	}
	if rate := recs[1].Counters["cache.byte_hit_rate"]; rate <= 0 {
		t.Errorf("NAS+cache byte hit rate %v, want > 0", rate)
	}
	// Per-round shape: round 1 pays full fetch traffic, later rounds less.
	if len(cacheRounds) != 3 {
		t.Fatalf("got %d rounds, want 3", len(cacheRounds))
	}
	if cacheRounds[1] >= cacheRounds[0] {
		t.Errorf("round 2 s2s bytes %d not below round 1's %d", cacheRounds[1], cacheRounds[0])
	}
	flip := recs[4].Steps
	cold, warm := flip[0], flip[len(flip)-1]
	if cold.Offloaded {
		t.Error("cold DAS request over round-robin should be rejected")
	}
	if !warm.Offloaded {
		t.Error("warm DAS request should be accepted")
	}
	if frac := warm.Stats["predicted_hit_frac"]; frac <= 0 {
		t.Errorf("warm decision hit fraction %v, want > 0", frac)
	}
	if warm.Stats.Int("cache_hits") == 0 {
		t.Error("warm offloaded run served no dependent ranges from cache")
	}
	if len(r.Notes) == 0 {
		t.Error("result carries no notes")
	}
}
