package kernels

import (
	"fmt"
	"math"

	"github.com/hpcio/das/internal/grid"
)

// Reducer is a data-reducing operation: it folds a raster into a small
// fixed-size aggregate. Reductions are the ideal active storage workload
// the literature the paper builds on (scan-intensive database and mining
// operations) was designed for: the dependence pattern is empty, every
// server folds its local strips independently, and only the tiny partial
// aggregates cross the network. DAS's prediction core accepts them
// unconditionally — they are the case where Σ aj = 0 by construction.
type Reducer interface {
	// Name is the operator name used in requests.
	Name() string
	// Description is the human-readable summary.
	Description() string
	// PartialLen is the fixed element count of a partial aggregate.
	PartialLen() int
	// ReduceBand folds the owned range of a band into a partial aggregate
	// of length PartialLen.
	ReduceBand(b *grid.Band) []float64
	// Merge combines any number of partials into one (associative and
	// commutative, so merge order does not matter).
	Merge(partials [][]float64) []float64
	// Weight is the relative per-element compute cost.
	Weight() float64
}

// Stats computes count, sum, sum of squares, min, and max in one pass;
// Mean and StdDev interpret the aggregate.
type Stats struct{}

func (Stats) Name() string { return "stats" }
func (Stats) Description() string {
	return "Scan reduction: count, sum, sum of squares, minimum and maximum " +
		"of every element, merged across servers."
}
func (Stats) PartialLen() int { return 5 }
func (Stats) Weight() float64 { return 0.5 }

// Aggregate slot indices for Stats partials.
const (
	StatCount = iota
	StatSum
	StatSumSq
	StatMin
	StatMax
)

// ReduceBand keeps its five aggregates in registers and folds the owned
// range a run at a time, each read where it lies. The sums are float
// additions in element order; minimum and maximum are taken on order keys
// (orderKey), whose order is math.Min's and math.Max's on everything but a
// NaN — −0 below +0 included — so a range holding one, which its extreme
// keys show, is folded again by the reference loop those two define.
func (Stats) ReduceBand(b *grid.Band) []float64 {
	var sum, sumSq float64
	lo, hi := int64(keyPosInf), int64(keyNegInf)
	for i := b.Start; i < b.End; {
		run := b.Run(i, b.End)
		for _, v := range run {
			sum += v
			sumSq += v * v
			k := orderKey(v)
			lo, hi = min(lo, k), max(hi, k)
		}
		i += int64(len(run))
	}
	if lo < keyNegInf || hi > keyPosInf {
		return statsReference(b)
	}
	return []float64{float64(b.OwnedLen()), sum, sumSq, keyFloat(lo), keyFloat(hi)}
}

// statsReference is the fold that defines Stats' bits: math.Min and
// math.Max decide what a NaN does to the extremes (Min(−Inf, NaN) is −Inf).
func statsReference(b *grid.Band) []float64 {
	out := []float64{0, 0, 0, math.Inf(1), math.Inf(-1)}
	for i := b.Start; i < b.End; i++ {
		v := b.At(i)
		out[StatCount]++
		out[StatSum] += v
		out[StatSumSq] += v * v
		out[StatMin] = math.Min(out[StatMin], v)
		out[StatMax] = math.Max(out[StatMax], v)
	}
	return out
}

func (Stats) Merge(partials [][]float64) []float64 {
	out := []float64{0, 0, 0, math.Inf(1), math.Inf(-1)}
	for _, p := range partials {
		out[StatCount] += p[StatCount]
		out[StatSum] += p[StatSum]
		out[StatSumSq] += p[StatSumSq]
		out[StatMin] = math.Min(out[StatMin], p[StatMin])
		out[StatMax] = math.Max(out[StatMax], p[StatMax])
	}
	return out
}

// Mean returns the average from a Stats aggregate.
func Mean(agg []float64) float64 {
	if agg[StatCount] == 0 {
		return 0
	}
	return agg[StatSum] / agg[StatCount]
}

// StdDev returns the population standard deviation from a Stats aggregate.
func StdDev(agg []float64) float64 {
	n := agg[StatCount]
	if n == 0 {
		return 0
	}
	mean := agg[StatSum] / n
	v := agg[StatSumSq]/n - mean*mean
	if v < 0 {
		v = 0 // guard rounding
	}
	return math.Sqrt(v)
}

// Histogram counts elements into Bins equal-width buckets over [Lo, Hi);
// values outside clamp to the end buckets.
type Histogram struct {
	Bins   int
	Lo, Hi float64
}

func (h Histogram) Name() string { return "histogram" }
func (h Histogram) Description() string {
	return fmt.Sprintf("Scan reduction: %d-bin histogram over [%g, %g).", h.Bins, h.Lo, h.Hi)
}
func (h Histogram) PartialLen() int { return h.Bins }
func (Histogram) Weight() float64   { return 0.6 }

func (h Histogram) bucket(v float64) int {
	if h.Hi <= h.Lo {
		return 0
	}
	i := int((v - h.Lo) / (h.Hi - h.Lo) * float64(h.Bins))
	if i < 0 {
		return 0
	}
	if i >= h.Bins {
		return h.Bins - 1
	}
	return i
}

func (h Histogram) ReduceBand(b *grid.Band) []float64 {
	out := make([]float64, h.Bins)
	for i := b.Start; i < b.End; {
		run := b.Run(i, b.End)
		for _, v := range run {
			out[h.bucket(v)]++
		}
		i += int64(len(run))
	}
	return out
}

func (h Histogram) Merge(partials [][]float64) []float64 {
	out := make([]float64, h.Bins)
	for _, p := range partials {
		for i, v := range p {
			out[i] += v
		}
	}
	return out
}

// ReduceAll runs a reducer sequentially over a whole grid, reading its
// values in place: the reference result distributed reductions must
// reproduce exactly.
func ReduceAll(r Reducer, g *grid.Grid) []float64 {
	b := grid.BandOver(g.W, g.Len(), 0, g.Len(), 0, g.Data)
	defer b.Release()
	return r.ReduceBand(b)
}

// ReducerRegistry maps reduction operator names, analogous to Registry.
type ReducerRegistry struct {
	byName map[string]Reducer
	order  []string
}

// NewReducerRegistry returns an empty registry.
func NewReducerRegistry() *ReducerRegistry {
	return &ReducerRegistry{byName: make(map[string]Reducer)}
}

// Register adds a reducer; re-registering a name replaces it.
func (r *ReducerRegistry) Register(red Reducer) {
	if red.Name() == "" {
		panic("kernels: reducer with empty name")
	}
	if _, exists := r.byName[red.Name()]; !exists {
		r.order = append(r.order, red.Name())
	}
	r.byName[red.Name()] = red
}

// Lookup returns the reducer for an operator name.
func (r *ReducerRegistry) Lookup(name string) (Reducer, bool) {
	red, ok := r.byName[name]
	return red, ok
}

// Names returns registered names in order.
func (r *ReducerRegistry) Names() []string {
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// DefaultReducers returns stats and a 32-bin histogram over [0, 256), a
// match for the workload generators' value ranges.
func DefaultReducers() *ReducerRegistry {
	r := NewReducerRegistry()
	r.Register(Stats{})
	r.Register(Histogram{Bins: 32, Lo: 0, Hi: 256})
	return r
}
