package workload

import (
	"fmt"
	"math"
	"sort"
)

// Zipf samples ranks in [0, n) with probability proportional to
// 1/(rank+1)^s — the file-popularity skew of YCSB-style multi-tenant
// workloads (ScaleStore's evaluation shape). The sampler precomputes the
// cumulative distribution once and answers each draw with one RNG draw
// plus a binary search, so a run over thousands of tenants costs no
// per-sample allocation.
//
// All randomness flows through the explicitly seeded splitmix64 RNG and
// the CDF is a fixed float64 array, so two samplers built with equal
// (n, s) over equally seeded RNGs produce identical rank sequences on
// every platform — the workload replay contract.
type Zipf struct {
	rng *RNG
	cdf []float64 // cdf[r] = P(rank <= r), cdf[n-1] == 1
}

// NewZipf builds a sampler over n ranks with skew s > 0 drawing from rng.
// Typical skews: 0.99 (YCSB default) to 1.2 (heavily skewed).
func NewZipf(rng *RNG, n int, s float64) (*Zipf, error) {
	if rng == nil {
		return nil, fmt.Errorf("workload: Zipf needs an RNG")
	}
	if n <= 0 {
		return nil, fmt.Errorf("workload: Zipf over %d ranks", n)
	}
	if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return nil, fmt.Errorf("workload: Zipf skew %v must be a positive finite value", s)
	}
	cdf := make([]float64, n)
	sum := 0.0
	for r := 0; r < n; r++ {
		sum += math.Pow(float64(r+1), -s)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	cdf[n-1] = 1 // exact, against rounding drift
	return &Zipf{rng: rng, cdf: cdf}, nil
}

// Sample draws one rank in [0, n), n the rank count NewZipf was given.
func (z *Zipf) Sample() int {
	u := z.rng.Float()
	return sort.SearchFloat64s(z.cdf, u)
}

// Weight returns the probability mass of one rank — the analytical
// frequency tests and capacity planning compare against.
func (z *Zipf) Weight(rank int) float64 {
	if rank == 0 {
		return z.cdf[0]
	}
	return z.cdf[rank] - z.cdf[rank-1]
}
