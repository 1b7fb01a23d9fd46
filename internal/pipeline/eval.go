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
		plo, phi := grid.HaloRange(lo, hi, n.Halo, total)
		var data []float64
		if len(n.Parents) == 0 {
			data = in.Data[plo-in.Lo : phi-in.Lo]
		} else {
			data = pl.evalFromInput(n.Parents[0], plo, phi, in, charge)
		}
		return pl.applyKernel(node, lo, hi, plo, data, total, charge)
	case kernels.KindCombine:
		a := pl.evalFromInput(n.Parents[0], lo, hi, in, charge)
		b := pl.evalFromInput(n.Parents[1], lo, hi, in, charge)
		return pl.applyCombine(node, a, b, charge)
	default:
		panic(fmt.Sprintf("pipeline: evalFromInput on %v node %q", n.Kind, n.ID))
	}
}

// applyKernel runs a kernel node over owned [lo, hi) given parent values
// covering [dataLo, dataLo+len(data)).
func (pl *Plan) applyKernel(node int, lo, hi, dataLo int64, data []float64, total int64, charge func(int64, float64)) []float64 {
	n := pl.Nodes[node]
	band := grid.BandOver(pl.Width, total, lo, hi, dataLo, data)
	out := make([]float64, hi-lo)
	n.Kernel.ApplyBand(band, out)
	if charge != nil {
		charge(hi-lo, n.Weight)
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
