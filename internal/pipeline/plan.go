// Package pipeline executes operator DAGs entirely on the storage
// servers: the client submits a DAG of registered kernels, each server
// computes its strips stage by stage, and between stages only the
// halo-boundary bands stream server-to-server — no intermediate raster is
// ever written back. A fused leading prefix evaluates several stages in
// one dispatch by reading the input with a deeper composed halo — how
// deep is the depth the prediction core prices cheapest — and only the
// final grid output commits through the normal writeback path. The
// achieved halo traffic is reported against the composed-offset lower
// bound the prediction core derives from the same Minkowski composition.
package pipeline

import (
	"fmt"
	"slices"

	"github.com/hpcio/das/internal/cluster"
	"github.com/hpcio/das/internal/features"
	"github.com/hpcio/das/internal/kernels"
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
// the execution shape (fused prefix, round count, output node). Every
// server compiles the same DAG against the same metadata and registries,
// and the client ships the one choice compiling does not make — the
// fusion depth its price chose — in every stage request.
type Plan struct {
	// DAG is the graph the plan was compiled from, shipped in every stage
	// request.
	DAG   kernels.DAG
	Nodes []PlanNode
	// Chain is the length of the leading linear chain of kernels: the
	// deepest prefix that can fuse. Prefix is the number of leading nodes
	// fused into round 0, in [1, Chain]: 1 until fuse sets it.
	Chain, Prefix int
	// GridOut indexes the node whose raster the DAG commits; it is
	// always the last non-reduce node in topological order. Reduce
	// indexes the terminal reduce, -1 without one.
	GridOut int
	Reduce  int
	// Width is the raster width.
	Width int
}

// Compile validates and resolves a DAG for pushdown execution over a
// raster of the given width, fusing nothing: how deep the leading chain
// fuses is priced per layout (Spec) and set by Client.Run.
// The last argument is not read; it stays for the callers that pass one.
func Compile(d kernels.DAG, reg *kernels.Registry, combs *kernels.CombinerRegistry,
	reds *kernels.ReducerRegistry, width int, _ int64) (*Plan, error) {
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

	pl := &Plan{DAG: d, Nodes: make([]PlanNode, len(order)), Reduce: -1, Width: width}
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

	// The leading chain: each node the one kernel reading the node before.
	pl.Chain = 1
	for i := 1; i <= pl.GridOut; i++ {
		n := pl.Nodes[i]
		if n.Kind != kernels.KindKernel || len(n.Parents) != 1 || n.Parents[0] != i-1 {
			break
		}
		pl.Chain = i + 1
	}
	return pl, pl.fuse(1)
}

// fuse sets the fusion depth — the first depth nodes of the leading chain
// run as round 0 — and recomputes which nodes' state outlives its round.
func (pl *Plan) fuse(depth int) error {
	if depth < 1 || depth > pl.Chain {
		return fmt.Errorf("pipeline: dag %q: fusion depth %d outside [1,%d]", pl.DAG.Name, depth, pl.Chain)
	}
	pl.Prefix = depth
	// Retention: a node's state survives its round when a strictly later
	// round consumes it. The reduce folds inline in the final round, so
	// it never forces retention on the grid output.
	for i := range pl.Nodes {
		pl.Nodes[i].Retain = false
	}
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
	return nil
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

// work says what a round computes over each run: the lineage it evaluates
// from the DAG input — the fused prefix, a catch-up, a second DAG root —
// or, when fromInput is false, its one node from its parents' values.
func (pl *Plan) work(round int, catchUp bool) (lin lineage, fromInput bool) {
	node := pl.RoundNode(round)
	switch {
	case catchUp:
		return pl.lineageOf(pl.catchUpTargets(round)), true
	case round == 0:
		return pl.lineageOf(pl.roundTargets(0)), true
	case len(pl.Nodes[node].Parents) == 0:
		return pl.lineageOf([]int{node}), true
	}
	return lineage{}, false
}

// schedule describes the plan's rounds at its fusion depth the way the
// predictor prices them: what each round reads past a run and what it
// evaluates, the terminal reduce folded into the last.
func (pl *Plan) schedule() []predict.PipelineRound {
	rounds := make([]predict.PipelineRound, pl.Rounds())
	for r := range rounds {
		rd := predict.PipelineRound{Input: -1}
		if lin, fromInput := pl.work(r, false); fromInput {
			rd.Input = lin.depth
			for i, need := range lin.need {
				if need >= 0 {
					rd.Evals = append(rd.Evals, predict.PipelineEval{Weight: pl.Nodes[i].Weight, Need: need})
				}
			}
		} else {
			n := pl.Nodes[pl.RoundNode(r)]
			for range n.Parents {
				rd.Pulls = append(rd.Pulls, n.Halo) // a combine's Halo is 0
			}
			rd.Evals = []predict.PipelineEval{{Weight: n.Weight}}
		}
		if r == len(rounds)-1 && pl.Reduce >= 0 {
			rd.Evals = append(rd.Evals, predict.PipelineEval{Weight: pl.Nodes[pl.Reduce].Weight})
		}
		rounds[r] = rd
	}
	return rounds
}

// Spec projects the plan into the predictor's pricing shape: its stages
// and the schedule of every fusion depth, priced at the platform's rates.
func (pl *Plan) Spec(platform cluster.Config) predict.PipelineSpec {
	spec := predict.PipelineSpec{Platform: platform}
	for _, n := range pl.Nodes {
		spec.Stages = append(spec.Stages, predict.PipelineStage{
			Name:   n.ID + "/" + n.Op,
			Back:   n.Back,
			Fwd:    n.Fwd,
			Reduce: n.Kind == kernels.KindReduce,
		})
	}
	for depth := 1; depth <= pl.Chain; depth++ {
		at := *pl
		at.Nodes = slices.Clone(pl.Nodes)
		at.fuse(depth) // within [1, Chain]: cannot fail
		spec.Depths = append(spec.Depths, at.schedule())
	}
	sink := pl.Nodes[len(pl.Nodes)-1]
	spec.DAGBack, spec.DAGFwd = sink.CumBack, sink.CumFwd
	return spec
}
