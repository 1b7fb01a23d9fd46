// Package pipeline executes operator DAGs entirely on the storage
// servers: the client submits a DAG of registered kernels, each server
// computes its strips stage by stage, and between stages only the
// halo-boundary bands stream server-to-server — no intermediate raster is
// ever written back. A fused leading prefix evaluates several stages in
// one dispatch by reading the input with a deeper composed halo, and only
// the final grid output commits through the normal writeback path. The
// achieved halo traffic is reported against the composed-offset lower
// bound the prediction core derives from the same Minkowski composition.
package pipeline

import (
	"fmt"

	"github.com/hpcio/das/internal/features"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/predict"
)

// PlanNode is one DAG node resolved for execution, in topological
// position. Exactly one of Kernel, Combiner, Reducer is set.
type PlanNode struct {
	ID   string
	Kind kernels.NodeKind
	Op   string
	// Parents are topological positions into Plan.Nodes. Empty for a
	// kernel that reads the DAG input.
	Parents []int

	Kernel   kernels.Kernel
	Combiner kernels.Combiner
	Reducer  kernels.Reducer

	// Back and Fwd are the node's own dependence reach in flattened
	// elements against its parents; Halo is the symmetric data halo
	// (MaxAbsOffset) a band must carry so 2-D boundary clamping stays in
	// range — the same bound the active layer assembles bands with.
	Back, Fwd, Halo int64
	// CumBack, CumFwd, CumHalo are the composed (Minkowski-summed)
	// equivalents against the DAG input.
	CumBack, CumFwd, CumHalo int64
	// EvalHalo is the input-band depth a from-input evaluation of this
	// node actually reads: the evaluation applies each stage's symmetric
	// Halo in turn, so the depths sum along the deepest parent path.
	// For asymmetric stage patterns this exceeds CumHalo.
	EvalHalo int64
	Weight   float64
	// Retain marks state the servers must keep after the node's round:
	// some later round reads it (locally or via a band pull).
	Retain bool
}

// Plan is a compiled DAG: nodes in deterministic topological order plus
// the execution shape (fused prefix, round count, output node). The
// client and every server compile the same DAG against the same metadata
// and registries, so they agree on the plan without shipping it.
type Plan struct {
	Name  string
	Nodes []PlanNode
	// Prefix is the number of leading nodes fused into round 0. Nodes
	// [0, Prefix) form a linear chain by construction.
	Prefix int
	// GridOut indexes the node whose raster the DAG commits; it is
	// always the last non-reduce node in topological order. Reduce
	// indexes the terminal reduce, -1 without one.
	GridOut int
	Reduce  int
	// Width is the raster width; LocalHalo the per-side elements the
	// layout's replication already holds next to every assignment run.
	Width     int
	LocalHalo int64
}

// Compile validates and resolves a DAG for pushdown execution over a
// raster of the given width on a layout granting localHalo replica-
// prepaid elements per side. The fused prefix extends along the leading
// linear chain while the composed input halo stays within the local
// replicas (the deep read is free) or the next stage adds no reach.
func Compile(d kernels.DAG, reg *kernels.Registry, combs *kernels.CombinerRegistry,
	reds *kernels.ReducerRegistry, width int, localHalo int64) (*Plan, error) {
	if err := d.Validate(reg, combs, reds); err != nil {
		return nil, err
	}
	if width <= 0 {
		return nil, fmt.Errorf("pipeline: dag %q: raster width %d", d.Name, width)
	}
	order, err := d.TopoOrder()
	if err != nil {
		return nil, err
	}
	pats, err := d.NodePatterns(reg)
	if err != nil {
		return nil, err
	}
	pos := make([]int, len(order)) // original index -> topological position
	for ti, oi := range order {
		pos[oi] = ti
	}
	origIndex := make(map[string]int, len(d.Nodes))
	for i, n := range d.Nodes {
		origIndex[n.ID] = i
	}

	pl := &Plan{Name: d.Name, Nodes: make([]PlanNode, len(order)), Reduce: -1, Width: width, LocalHalo: localHalo}
	for ti, oi := range order {
		n := d.Nodes[oi]
		pn := PlanNode{ID: n.ID, Kind: n.Kind, Op: n.Op}
		for _, pid := range n.Parents {
			pn.Parents = append(pn.Parents, pos[origIndex[pid]])
		}
		var own features.Pattern
		switch n.Kind {
		case kernels.KindKernel:
			k, _ := reg.Lookup(n.Op)
			pn.Kernel, pn.Weight = k, k.Weight()
			own = kernels.Pattern(k)
		case kernels.KindCombine:
			c, _ := combs.Lookup(n.Op)
			pn.Combiner, pn.Weight = c, c.Weight()
			own = features.Pattern{Name: n.Op, Offsets: []features.Offset{{}}}
		case kernels.KindReduce:
			r, _ := reds.Lookup(n.Op)
			pn.Reducer, pn.Weight = r, r.Weight()
			own = features.Pattern{Name: n.Op, Offsets: []features.Offset{{}}}
			pl.Reduce = ti
		}
		pn.Back, pn.Fwd = own.Reach(width)
		pn.Halo = own.MaxAbsOffset(width)
		pn.CumBack, pn.CumFwd = pats[oi].Reach(width)
		pn.CumHalo = pats[oi].MaxAbsOffset(width)
		pn.EvalHalo = pn.Halo
		for _, p := range pn.Parents {
			if h := pn.Halo + pl.Nodes[p].EvalHalo; h > pn.EvalHalo {
				pn.EvalHalo = h
			}
		}
		pl.Nodes[ti] = pn
	}

	gridOut, err := d.GridOutput()
	if err != nil {
		return nil, err
	}
	pl.GridOut = pos[gridOut]

	// Fusion rule: extend the prefix while the next node continues the
	// leading linear chain and either its composed halo fits in the
	// replica-prepaid local halo or it adds no reach of its own.
	pl.Prefix = 1
	for i := 1; i <= pl.GridOut; i++ {
		n := pl.Nodes[i]
		chained := n.Kind == kernels.KindKernel && len(n.Parents) == 1 && n.Parents[0] == i-1
		if !chained {
			break
		}
		if n.EvalHalo <= localHalo || n.Halo == 0 {
			pl.Prefix = i + 1
			continue
		}
		break
	}

	// Retention: a node's state survives its round when a strictly later
	// round consumes it. The reduce folds inline in the final round, so
	// it never forces retention on the grid output.
	for i := range pl.Nodes {
		for _, p := range pl.Nodes[i].Parents {
			if pl.Nodes[i].Kind == kernels.KindReduce {
				continue
			}
			if pl.round(i) > pl.round(p) {
				pl.Nodes[p].Retain = true
			}
		}
	}
	return pl, nil
}

// Rounds returns the number of dispatch rounds: one for the fused prefix
// plus one per remaining non-reduce node.
func (pl *Plan) Rounds() int { return 1 + pl.GridOut + 1 - pl.Prefix }

// RoundNode returns the topological position computed by a round: the
// whole prefix reports its last node for round 0.
func (pl *Plan) RoundNode(round int) int {
	if round == 0 {
		return pl.Prefix - 1
	}
	return pl.Prefix + round - 1
}

// round returns the dispatch round that computes a node (the reduce maps
// to the final round, where it folds inline).
func (pl *Plan) round(node int) int {
	if node < pl.Prefix {
		return 0
	}
	if node > pl.GridOut { // the reduce
		node = pl.GridOut
	}
	return node - pl.Prefix + 1
}

// roundTargets returns the nodes a round must materialize: the retained
// nodes it computes, plus the grid output in the final round.
func (pl *Plan) roundTargets(round int) []int {
	var lo, hi int // nodes computed this round, inclusive
	if round == 0 {
		lo, hi = 0, pl.Prefix-1
	} else {
		lo = pl.Prefix + round - 1
		hi = lo
	}
	var targets []int
	for i := lo; i <= hi; i++ {
		if pl.Nodes[i].Retain || i == pl.GridOut {
			targets = append(targets, i)
		}
	}
	return targets
}

// catchUpTargets returns the nodes a crash-reassigned strip must
// recompute from the durable input at the given round: every retained
// node up to and including the round's own targets.
func (pl *Plan) catchUpTargets(round int) []int {
	last := pl.RoundNode(round)
	var targets []int
	for i := 0; i <= last; i++ {
		if pl.Nodes[i].Retain || (i == pl.GridOut && pl.round(i) == round) {
			targets = append(targets, i)
		}
	}
	return targets
}

// Spec projects the plan into the predictor's pricing shape.
func (pl *Plan) Spec() predict.PipelineSpec {
	spec := predict.PipelineSpec{PrefixLen: pl.Prefix}
	for _, n := range pl.Nodes {
		spec.Stages = append(spec.Stages, predict.PipelineStage{
			Name:   n.ID + "/" + n.Op,
			Back:   n.Back,
			Fwd:    n.Fwd,
			Reduce: n.Kind == kernels.KindReduce,
		})
	}
	for _, n := range pl.Nodes[:pl.Prefix] {
		if n.CumBack > spec.PrefixBack {
			spec.PrefixBack = n.CumBack
		}
		if n.CumFwd > spec.PrefixFwd {
			spec.PrefixFwd = n.CumFwd
		}
	}
	sink := pl.Nodes[len(pl.Nodes)-1]
	spec.DAGBack, spec.DAGFwd = sink.CumBack, sink.CumFwd
	return spec
}

// LocalHaloOf returns the replica-prepaid halo elements per side a
// layout grants — the budget the fusion rule spends.
func LocalHaloOf(lay layout.Layout, lc layout.Locator) int64 {
	return predict.LocalHaloElems(lay, lc)
}
