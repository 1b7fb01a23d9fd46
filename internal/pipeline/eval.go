package pipeline

import (
	"fmt"

	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/kernels"
)

// evalFromInput computes node values over the owned element range
// [lo, hi) into out by recursing to the DAG input, which must be present
// in the band across the composed halo of every node touched. Because
// each output element depends only on its own dependence window,
// evaluating a node over a sub-range is bitwise identical to slicing a
// full-raster evaluation — the property that makes fused prefixes and
// crash catch-up recomputes reproduce the sequential reference exactly.
// charge, when non-nil, receives the weighted element count of every
// kernel/combine application for simulated CPU accounting.
//
// out is the caller's: retained state and the grid output outlive the
// round, so they are ordinary allocations. Everything the recursion makes
// on the way there dies with it and lives in pooled bands (transient).
func (pl *Plan) evalFromInput(out []float64, node int, lo, hi int64, in *grid.Band, charge func(elems int64, weight float64)) {
	n := pl.Nodes[node]
	switch n.Kind {
	case kernels.KindKernel:
		var band *grid.Band
		if len(n.Parents) == 0 {
			band = in.Narrow(lo, hi) // reads the input where the band holds it
		} else {
			plo, phi := grid.HaloRange(lo, hi, n.Halo, in.GlobalLen)
			band = pl.transient(n.Parents[0], lo, hi, plo, phi, in, charge)
		}
		pl.applyKernel(out, node, band, charge)
		band.Release()
	case kernels.KindCombine:
		a := pl.transient(n.Parents[0], lo, hi, lo, hi, in, charge)
		b := pl.transient(n.Parents[1], lo, hi, lo, hi, in, charge)
		pl.applyCombine(out, node, a, b, charge)
		a.Release()
		b.Release()
	default:
		panic(fmt.Sprintf("pipeline: evalFromInput on %v node %q", n.Kind, n.ID))
	}
}

// transient evaluates node over [plo, phi) from the input into a pooled
// band owning [lo, hi): a value only the caller's next kernel or combine
// reads. Its memory comes from the float pool unzeroed — the evaluation
// writes all of it — and goes back with the band's Release, which the
// caller owes once that reader has returned.
func (pl *Plan) transient(node int, lo, hi, plo, phi int64, in *grid.Band, charge func(int64, float64)) *grid.Band {
	band := grid.NewBandPooled(pl.Width, in.GlobalLen, lo, hi, plo, phi)
	pl.evalFromInput(band.Writable(plo, phi), node, plo, phi, in, charge)
	return band
}

// applyKernel runs a kernel node over the owned range of band, which
// holds the node's parent values (or the DAG input) across its halo, into
// out.
func (pl *Plan) applyKernel(out []float64, node int, band *grid.Band, charge func(int64, float64)) {
	n := pl.Nodes[node]
	n.Kernel.ApplyBand(band, out)
	if charge != nil {
		charge(band.OwnedLen(), n.Weight)
	}
}

// applyCombine joins two parents element-wise over the range both bands
// own, into out. It walks them a run at a time, so parents held as one
// window per strip are read where they lie.
func (pl *Plan) applyCombine(out []float64, node int, a, b *grid.Band, charge func(int64, float64)) {
	n := pl.Nodes[node]
	for i := a.Start; i < a.End; {
		ra, rb := a.Run(i, a.End), b.Run(i, a.End)
		o := out[i-a.Start:][:min(len(ra), len(rb))]
		for j := range o {
			o[j] = n.Combiner.Combine(ra[j], rb[j])
		}
		i += int64(len(o))
	}
	if charge != nil {
		charge(a.OwnedLen(), n.Weight)
	}
}
