// Benchmarks regenerating the paper's evaluation: the Table I kernels and
// one sub-benchmark per experiment. Each iteration re-runs the full
// experiment at the paper-mirroring scale (1 GB → 1 MiB); the reported
// custom metrics are the plotted values — simulated seconds, the numbers
// the paper's y-axes show, for the figures — while the standard ns/op
// measures the wall cost of regenerating the experiment. -short shrinks
// the sweep to experiments.Quick for smoke runs.
package das_test

import (
	"strings"
	"testing"

	"github.com/hpcio/das/internal/experiments"
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/workload"
)

func benchConfig() experiments.Config {
	if testing.Short() {
		return experiments.Quick()
	}
	return experiments.Default()
}

// BenchmarkTableIKernels measures the real per-element throughput of the
// Table I analysis kernels (plus the median filter) on in-memory rasters —
// the compute side every scheme shares.
func BenchmarkTableIKernels(b *testing.B) {
	const w, h = 1024, 512
	terrain := workload.Terrain(w, h, 1)
	image := workload.Image(w, h, 1, 0.05)
	cases := []struct {
		k  kernels.Kernel
		in *grid.Grid
	}{
		{kernels.FlowRouting{}, terrain},
		{kernels.FlowAccumulation{}, kernels.Apply(kernels.FlowRouting{}, terrain)},
		{kernels.Gaussian{}, image},
		{kernels.Median{}, image},
	}
	for _, c := range cases {
		c := c
		b.Run(c.k.Name(), func(b *testing.B) {
			band := grid.BandOf(c.in, 0, c.in.Len(), 0, c.in.Len())
			out := make([]float64, c.in.Len())
			b.SetBytes(c.in.SizeBytes())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.k.ApplyBand(band, out)
			}
		})
	}
}

// reportSeries publishes each series' value at the largest x as a custom
// metric.
func reportSeries(b *testing.B, r *experiments.Result) {
	b.Helper()
	xs := r.Xs()
	if len(xs) == 0 {
		b.Fatal("empty result")
	}
	last := xs[len(xs)-1]
	for _, s := range r.Series() {
		if v, ok := r.Value(s, last); ok {
			b.ReportMetric(v, strings.ReplaceAll(s, " ", "_"))
		}
	}
}

// BenchmarkExperiment regenerates every experiment of the evaluation, one
// sub-benchmark each: the paper's Figs. 10–14, the DESIGN.md ablations,
// and the fault and adaptive-stack experiments. Every iteration starts
// from a fresh Config, so each of the experiment's cells is simulated (and
// verified) again.
func BenchmarkExperiment(b *testing.B) {
	for _, e := range experiments.Experiments() {
		b.Run(e.ID, func(b *testing.B) {
			var last *experiments.Result
			for i := 0; i < b.N; i++ {
				r, _, err := benchConfig().Execute(e)
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			reportSeries(b, last)
		})
	}
}
