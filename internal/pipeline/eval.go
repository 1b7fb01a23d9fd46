package pipeline

import (
	"fmt"

	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/kernels"
)

// evalFromInput computes node values over the owned element range
// [lo, hi) by recursing to the DAG input, which must be present in the
// band across the composed halo of every node touched. Because each
// output element depends only on its own dependence window, evaluating a
// node over a sub-range is bitwise identical to slicing a full-raster
// evaluation — the property that makes fused prefixes and crash
// catch-up recomputes reproduce the sequential reference exactly.
// charge, when non-nil, receives the weighted element count of every
// kernel/combine application for simulated CPU accounting.
func (pl *Plan) evalFromInput(node int, lo, hi int64, in *grid.Band, charge func(elems int64, weight float64)) []float64 {
	n := pl.Nodes[node]
	total := in.GlobalLen
	switch n.Kind {
	case kernels.KindKernel:
		var band *grid.Band
		if len(n.Parents) == 0 {
			band = in.Narrow(lo, hi) // reads the input where the band holds it
		} else {
			plo, phi := grid.HaloRange(lo, hi, n.Halo, total)
			band = grid.BandOver(pl.Width, total, lo, hi, plo, pl.evalFromInput(n.Parents[0], plo, phi, in, charge))
		}
		defer band.Release()
		return pl.applyKernel(node, band, charge)
	case kernels.KindCombine:
		a := pl.evalFromInput(n.Parents[0], lo, hi, in, charge)
		b := pl.evalFromInput(n.Parents[1], lo, hi, in, charge)
		return pl.applyCombine(node, a, b, charge)
	default:
		panic(fmt.Sprintf("pipeline: evalFromInput on %v node %q", n.Kind, n.ID))
	}
}

// applyKernel runs a kernel node over the owned range of band, which
// holds the node's parent values (or the DAG input) across its halo.
func (pl *Plan) applyKernel(node int, band *grid.Band, charge func(int64, float64)) []float64 {
	n := pl.Nodes[node]
	out := make([]float64, band.OwnedLen())
	n.Kernel.ApplyBand(band, out)
	if charge != nil {
		charge(band.OwnedLen(), n.Weight)
	}
	return out
}

// applyCombine joins two parent value slices element-wise.
func (pl *Plan) applyCombine(node int, a, b []float64, charge func(int64, float64)) []float64 {
	n := pl.Nodes[node]
	out := make([]float64, len(a))
	for i := range out {
		out[i] = n.Combiner.Combine(a[i], b[i])
	}
	if charge != nil {
		charge(int64(len(out)), n.Weight)
	}
	return out
}
