package active

import (
	"fmt"

	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/pfs"
	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/simnet"
)

// reduceReq asks one server to fold the strips of a file the client
// assigned it into a partial aggregate.
type reduceReq struct {
	Op     string
	Input  string
	Strips []int64
}

// reduceResp carries one server's partial aggregate.
type reduceResp struct {
	Err      string
	Partial  []float64
	Elements int64
}

// ReduceStats aggregates a distributed reduction's execution.
type ReduceStats struct {
	Servers  int
	Elements int64
	// ReturnBytes is what actually crossed from servers to the client —
	// the whole point of offloading a reduction.
	ReturnBytes int64
}

// handleReduce folds every run of the request's strips through the reducer
// and responds with the merged partial, on the exec's stage bodies.
// Reductions have no dependence, so assembly needs no halo and no remote
// fetches, and nothing is stored: of WalkRuns' stages only the read-ahead
// is at work.
func (svc *Service) handleReduce(p *sim.Proc, srv *pfs.Server, msg simnet.Message) {
	clu := svc.fs.Cluster()
	req := msg.Payload.(reduceReq)
	respond := func(r reduceResp, size int64) {
		clu.Net.Respond(p, msg, r, size, clu.ClassBetween(srv.NodeID(), msg.From))
	}
	red, ok := svc.reducers.Lookup(req.Op)
	if !ok {
		respond(reduceResp{Err: fmt.Sprintf("active: unknown reducer %q", req.Op)}, pfs.HeaderBytes)
		return
	}
	in, err := svc.fs.Raster(req.Input)
	if err != nil {
		respond(reduceResp{Err: err.Error()}, pfs.HeaderBytes)
		return
	}
	st := NewStages(svc.fs, nil, srv, in, nil, LocalOnly, 0, HaloStrips(in, 0), new(Tally))
	var partials [][]float64
	var elements int64
	fold := func(run StripRun, band *grid.Band) func(*sim.Proc) error {
		e0, e1 := run.Lo/in.ElemSize, run.Hi/in.ElemSize
		partials = append(partials, red.ReduceBand(band))
		band.Release()
		st.Compute(p, clu.ComputeTime(e1-e0, red.Weight()), red.Name(), e1-e0)
		elements += e1 - e0
		return nil
	}
	err = WalkRuns(p, StripRuns(in, req.Strips), st.Lead, st.Assemble, fold, nil)
	if err := st.Drain(p, err); err != nil {
		respond(reduceResp{Err: err.Error()}, pfs.HeaderBytes)
		return
	}
	partial := red.Merge(partials)
	respond(reduceResp{Partial: partial, Elements: elements},
		pfs.HeaderBytes+int64(len(partial))*grid.ElemSize)
}

// ExecReduce offloads a reduction through the dispatch loop, under the
// input's layout since it stores nothing: every server folds the strips
// it is assigned and returns only its partial aggregate; the client merges
// them. The returned slice is the full aggregate (kernels.ReduceAll on the
// whole raster, up to the order float sums are merged in).
func (c *Client) ExecReduce(p *sim.Proc, red kernels.Reducer, input string) ([]float64, ReduceStats, error) {
	in, err := c.fs.Raster(input)
	if err != nil {
		return nil, ReduceStats{}, err
	}
	ask := func(assign [][]int64, _ bool) func(int) Request {
		return func(srv int) Request {
			return Request{Payload: reduceReq{Op: red.Name(), Input: input, Strips: assign[srv]}, Size: pfs.HeaderBytes}
		}
	}
	var stats ReduceStats
	var partials [][]float64
	take := func(_ int, strips []int64, rp Reply) ([]int64, error) {
		if rp.Lost {
			return strips, nil
		}
		r, ok := rp.Payload.(reduceResp)
		if !ok {
			return nil, fmt.Errorf("active: unexpected response type %T", rp.Payload)
		}
		if r.Err != "" {
			return nil, remoteErr(input, r.Err)
		}
		// Guard against a client reducer parameterized differently from
		// the server-side registration of the same name (e.g. histograms
		// with different bin counts): merging mismatched partials would
		// silently corrupt the aggregate.
		if len(r.Partial) != red.PartialLen() {
			return nil, fmt.Errorf(
				"active: reducer %q returned %d-element partials, client expects %d (parameter mismatch with the server registration)",
				red.Name(), len(r.Partial), red.PartialLen())
		}
		stats.Elements += r.Elements
		stats.ReturnBytes += int64(len(r.Partial)) * grid.ElemSize
		if r.Elements > 0 {
			partials = append(partials, r.Partial)
		}
		return nil, nil
	}
	if _, stats.Servers, err = c.Dispatch(p, Port, input, in.Layout, in.Strips(), nil, ask, take); err != nil {
		return nil, ReduceStats{}, err
	}
	if len(partials) == 0 {
		return nil, ReduceStats{}, fmt.Errorf("active: no server held data for %q", input)
	}
	return red.Merge(partials), stats, nil
}
