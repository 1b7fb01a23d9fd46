package core

import (
	"errors"
	"fmt"

	"github.com/hpcio/das/internal/cluster"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/pfs"
	"github.com/hpcio/das/internal/pipeline"
	"github.com/hpcio/das/internal/predict"
	"github.com/hpcio/das/internal/sim"
)

// DAGRequest submits an operator DAG for execution.
type DAGRequest struct {
	// DAG is the operator graph; its single sink's raster commits to
	// Output, and a terminal reduce's aggregate returns in the report.
	DAG kernels.DAG
	// Input names an existing raster file. Output is created with the
	// input's geometry and layout (ignored by the per-pass path, which
	// names intermediates itself — see Report.Output for the actual file).
	Input, Output string
	// Scheme selects NAS (unconditional pushdown) or DAS (the prediction
	// core prices the whole DAG first). TS is rejected: traditional
	// storage has no DAG executor — use PerPass with per-stage TS.
	Scheme Scheme
	// PerPass forces the one-kernel-per-pass reference path: each stage
	// runs as a normal Execute writing its full intermediate raster back,
	// then the next stage reads it. Requires a linear chain.
	PerPass bool
	// DisablePrediction makes DAS push down unconditionally (ablation).
	DisablePrediction bool
}

// DAGReport is the outcome of one DAG execution.
type DAGReport struct {
	Scheme Scheme
	DAG    string
	// Pipelined is true when the kernel-DAG pushdown ran (no intermediate
	// writeback); false when the per-pass path served the request.
	Pipelined bool
	// Output is the file holding the DAG's grid output: Request.Output
	// when pipelined, the per-pass naming scheme's final stage otherwise.
	Output string
	// Decision is the prediction core's whole-DAG verdict (healthy DAS
	// pushdown only; advisory for non-chain DAGs, which have no per-pass
	// fallback). Run's depth and price are this Decision's.
	Decision *predict.Decision
	ExecTime sim.Time
	// Run carries the pushdown execution's statistics, including the
	// achieved-vs-lower-bound halo accounting.
	Run pipeline.RunResult
	// StageReports carries the per-pass path's per-stage reports.
	StageReports []Report
	// ReduceReport carries the per-pass path's terminal reduction.
	ReduceReport *ReduceReport
	// Reduce is the terminal reduce aggregate, nil when the DAG has none.
	Reduce []float64
	// Degraded notes the pushdown lost strips to faults and fell back to
	// the per-pass path (which can degrade further to normal I/O).
	Degraded       bool
	DegradedReason string
	Traffic        map[metrics.TrafficClass]int64
	ServerLoad     cluster.Utilization
}

// BusiestResource is Report.BusiestResource for a pushdown: the longest
// any one storage server's disk or NIC direction worked for it, or the
// CPU along its dispatch waves (Run.Phases.Compute: each wave's busiest
// server, summed — a wave starts when the one before has ended). Startup
// plus this is the bound ExecTime is set against.
func (r DAGReport) BusiestResource() sim.Time {
	return busiestResource(r.Run.Phases.Compute, r.ServerLoad)
}

// ExecuteDAG runs an operator DAG to completion under the selected
// scheme. The pushdown path executes the whole DAG on the storage
// servers, streaming only halo-boundary bands between stages and
// committing only the final raster; the per-pass path is the classic
// alternative that writes every intermediate back. Both commit
// byte-identical grid output.
func (s *System) ExecuteDAG(req DAGRequest) (DAGReport, error) {
	m, err := s.FS.Raster(req.Input)
	if err != nil {
		return DAGReport{}, err
	}
	if err := req.DAG.Validate(s.Registry, s.Combiners, s.Reducers); err != nil {
		return DAGReport{}, err
	}
	if req.Scheme != NAS && req.Scheme != DAS {
		return DAGReport{}, fmt.Errorf("core: scheme %v has no DAG executor (use PerPass per-stage schemes)", req.Scheme)
	}
	rep := DAGReport{Scheme: req.Scheme, DAG: req.DAG.Name}
	rep.Traffic, rep.ServerLoad, err = s.measure(func() error {
		if req.PerPass {
			return s.runDAGPerPass(&rep, req)
		}
		return s.runDAGPushdown(&rep, req, m)
	})
	if err != nil {
		return DAGReport{}, err
	}
	return rep, nil
}

// runDAGPushdown executes the DAG on the storage servers. Every pushdown
// is compiled and priced once, at the gate — fetch + exchange + final
// writeback against both the per-pass offload and traditional storage —
// and runs the plan at the fusion depth that price chose. Only a healthy
// DAS request takes the price's verdict: NAS pushes down
// unconditionally, and on a degraded cluster the catch-up machinery (not
// the healthy-cluster cost model) is the relevant authority. A pushdown
// that fails because strips lost their last live copy falls back to the
// per-pass path for chains.
func (s *System) runDAGPushdown(rep *DAGReport, req DAGRequest, in *pfs.FileMeta) error {
	pl, price, err := s.priceDAG(req, in)
	if err != nil {
		return err
	}
	if req.Scheme == DAS && !s.Clu.AnyStorageDown() {
		rep.Decision = &price
		if !price.Offload && !req.DisablePrediction {
			if _, _, chain := chainOps(req.DAG); chain {
				// Rejected: the per-pass path serves the request, each
				// stage running its own accept/reject workflow.
				return s.runDAGPerPass(rep, req)
			}
			// A branching DAG has no per-pass executor; the decision
			// stays advisory and the pushdown runs regardless.
		}
	}
	if _, err := s.createOutput(req.Output, in); err != nil {
		return err
	}
	attemptStart := s.Clu.Eng.Now()
	execTime, err := s.run("dag-"+req.DAG.Name, func(p *sim.Proc) error {
		s.startup(p)
		res, err := s.Pipeline.NewClient(s.Clu.ComputeID(0)).Run(p, pl, price, req.Input, req.Output)
		rep.Run = res
		return err
	})
	if err != nil {
		wasted := s.Clu.Eng.Now() - attemptStart
		if _, _, chain := chainOps(req.DAG); chain && errors.Is(err, pfs.ErrNoLiveCopy) {
			// Strips lost their last live copy mid-pushdown: scrap the
			// partial output and serve per-pass, whose stages degrade
			// further to normal I/O as needed.
			s.FS.Delete(req.Output)
			rep.Run = pipeline.RunResult{}
			rep.Degraded = true
			rep.DegradedReason = err.Error()
			if perr := s.runDAGPerPass(rep, req); perr != nil {
				return perr
			}
			rep.ExecTime += wasted
			return nil
		}
		return err
	}
	rep.Pipelined = true
	rep.Output = req.Output
	rep.Reduce = rep.Run.Reduce
	rep.ExecTime = execTime
	return nil
}

// priceDAG compiles the request's DAG over its input and prices the plan
// at the gate.
func (s *System) priceDAG(req DAGRequest, in *pfs.FileMeta) (*pipeline.Plan, predict.Decision, error) {
	pl, err := pipeline.Compile(req.DAG, s.Registry, s.Combiners, s.Reducers, in.Width, 0)
	if err != nil {
		return nil, predict.Decision{}, err
	}
	price, err := s.decide(pl.Spec(s.Clu.Cfg), predictParams(in), in.Layout, req.Input)
	return pl, price, err
}

// runDAGPerPass executes a chain DAG one kernel per pass: every stage is
// a normal Execute materializing its full intermediate raster, plus a
// terminal Reduce scan when the chain ends in one. This is the reference
// the pushdown is priced — and byte-compared — against.
func (s *System) runDAGPerPass(rep *DAGReport, req DAGRequest) error {
	ops, reduceOp, ok := chainOps(req.DAG)
	if !ok {
		return fmt.Errorf("core: per-pass execution requires a linear chain, dag %q branches", req.DAG.Name)
	}
	reports, err := s.ExecutePipeline(req.Scheme, req.Input, ops)
	rep.StageReports = reports
	if err != nil {
		return err
	}
	rep.Pipelined = false
	rep.Output = PipelineOutput(req.Input, ops)
	for _, r := range reports {
		rep.ExecTime += r.ExecTime
	}
	if reduceOp != "" {
		rrep, err := s.Reduce(ReduceRequest{Op: reduceOp, Input: rep.Output, Scheme: req.Scheme})
		if err != nil {
			return err
		}
		rep.ReduceReport = &rrep
		rep.Reduce = rrep.Result
		rep.ExecTime += rrep.ExecTime
	}
	return nil
}

// chainOps extracts the kernel sequence (and optional terminal reduce)
// from a DAG when it is a linear chain; ok=false when it branches.
func chainOps(d kernels.DAG) (ops []string, reduce string, ok bool) {
	order, err := d.TopoOrder()
	if err != nil {
		return nil, "", false
	}
	prev := ""
	for i, oi := range order {
		n := d.Nodes[oi]
		switch n.Kind {
		case kernels.KindKernel:
			if reduce != "" {
				return nil, "", false
			}
			if i == 0 {
				if len(n.Parents) != 0 {
					return nil, "", false
				}
			} else if len(n.Parents) != 1 || n.Parents[0] != prev {
				return nil, "", false
			}
			ops = append(ops, n.Op)
		case kernels.KindReduce:
			if i != len(order)-1 || len(n.Parents) != 1 || n.Parents[0] != prev {
				return nil, "", false
			}
			reduce = n.Op
		default:
			return nil, "", false
		}
		prev = n.ID
	}
	if len(ops) == 0 {
		return nil, "", false
	}
	return ops, reduce, true
}
