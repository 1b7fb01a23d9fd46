package pipeline

import (
	"fmt"
	"strings"

	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/kernels"
)

// lineage is what a from-input evaluation of a set of targets computes:
// the targets and every node they descend from, each over the run plus its
// need — the most any consumer in the lineage reads past the run on either
// side: that consumer's own need plus its Halo.
type lineage struct {
	targets []int
	// need is indexed by node, -1 for a node outside the lineage.
	need []int64
	// depth is how far past the run the lineage reads the DAG input.
	depth int64
}

// lineageOf walks the targets' ancestors backwards once, giving each node
// the largest need any of its consumers puts on it. A target needs at
// least its run.
func (pl *Plan) lineageOf(targets []int) lineage {
	lin := lineage{targets: targets, need: make([]int64, len(pl.Nodes))}
	for i := range lin.need {
		lin.need[i] = -1
	}
	for _, t := range targets {
		lin.need[t] = 0
	}
	for i := len(pl.Nodes) - 1; i >= 0; i-- {
		if lin.need[i] < 0 {
			continue
		}
		n := pl.Nodes[i]
		reads := lin.need[i] + n.Halo // a combine's Halo is 0
		if len(n.Parents) == 0 {
			lin.depth = max(lin.depth, reads)
		}
		for _, p := range n.Parents {
			lin.need[p] = max(lin.need[p], reads)
		}
	}
	return lin
}

// ops names the lineage's operators in the order they are evaluated, for
// the trace.
func (lin lineage) ops(pl *Plan) string {
	var ops []string
	for i, need := range lin.need {
		if need >= 0 {
			ops = append(ops, pl.Nodes[i].Op)
		}
	}
	return strings.Join(ops, "+")
}

// evalFromInput evaluates the lineage's targets over the owned run [lo, hi)
// in one forward pass from the DAG input, which the band in must hold
// depth elements past the run on either side (clamped). Each lineage node
// is evaluated once, in topological order, over grid.HaloRange(run, need),
// and charge receives weight × that range per node. Because each output
// element depends only on its own dependence window, a node evaluated over
// a sub-range is bitwise identical to the same slice of a full-raster
// evaluation — the property that makes fused prefixes and crash catch-up
// recomputes reproduce the sequential reference exactly.
//
// It returns, indexed by node, each target's values over [lo, hi) in
// ordinary memory — retained state and the grid output outlive the round —
// and nil for every other node. A target no other lineage node reads is
// evaluated there directly; every other node's values live in a pooled
// band, released before it returns, and a target among them is copied out.
func (pl *Plan) evalFromInput(lin lineage, lo, hi int64, in *grid.Band, charge func(elems int64, weight float64)) [][]float64 {
	out := make([][]float64, len(pl.Nodes))
	for _, t := range lin.targets {
		out[t] = make([]float64, hi-lo)
	}
	vals := make([]*grid.Band, len(pl.Nodes)) // each lineage node's values over its range
	for i, need := range lin.need {
		if need < 0 {
			continue
		}
		rlo, rhi := grid.HaloRange(lo, hi, need, in.GlobalLen)
		var dst []float64
		if need == 0 && out[i] != nil {
			dst = out[i]
			vals[i] = grid.BandOver(pl.Width, in.GlobalLen, lo, hi, lo, dst)
		} else {
			vals[i] = grid.NewBandPooled(pl.Width, in.GlobalLen, rlo, rhi, rlo, rhi)
			dst = vals[i].Writable(rlo, rhi)
		}
		n := pl.Nodes[i]
		switch n.Kind {
		case kernels.KindKernel:
			src := in
			if len(n.Parents) > 0 {
				src = vals[n.Parents[0]]
			}
			band := src.Narrow(rlo, rhi)
			pl.applyKernel(dst, i, band, charge)
			band.Release()
		case kernels.KindCombine:
			a, b := vals[n.Parents[0]].Narrow(rlo, rhi), vals[n.Parents[1]].Narrow(rlo, rhi)
			pl.applyCombine(dst, i, a, b, charge)
			a.Release()
			b.Release()
		default:
			panic(fmt.Sprintf("pipeline: evalFromInput on %v node %q", n.Kind, n.ID))
		}
	}
	for i, b := range vals {
		if b == nil {
			continue
		}
		if out[i] != nil && lin.need[i] > 0 {
			copy(out[i], b.Span(lo, hi)) // a pooled target's owned range
		}
		b.Release()
	}
	return out
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
