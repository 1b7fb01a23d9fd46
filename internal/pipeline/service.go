package pipeline

import (
	"fmt"
	"slices"
	"strings"

	"github.com/hpcio/das/internal/active"
	"github.com/hpcio/das/internal/cache"
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/pfs"
	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/simnet"
)

// Port is the mailbox pipeline servers listen on.
const Port = "pipe"

// AckPort is the mailbox a compute node's runs receive their acks on.
const AckPort = "pipe-ack"

// stageReq asks one server to compute one dispatch round of a DAG over
// an explicit ascending strip set. Round 0 evaluates the fused prefix
// from the durable input; later rounds evaluate one node from parent
// state, pulling halo-boundary bands from the strips' state owners.
// CatchUp reruns the whole lineage from the input instead — the recovery
// path when a crash lost the previous owner's in-memory state.
type stageReq struct {
	Token   string
	DAG     kernels.DAG
	Input   string
	Output  string
	Round   int
	Strips  []int64
	CatchUp bool
	// Depth is the fusion depth the run's price chose (Plan.fuse): every
	// server runs the rounds of the same prefix.
	Depth int
	// Owners maps every input strip to the server whose state holds the
	// previous rounds' values for it (-1 unknown). nil in round 0.
	Owners []int32
}

// releaseReq drops a token's state on every server (one-way, best
// effort: a dead server's state died with it).
type releaseReq struct{ Token string }

// stageResp reports one server's round statistics.
type stageResp struct {
	Err string
	// Transient marks failures the coordinator can cure by reassigning
	// the strips with catch-up (lost state, aborted pulls), as opposed
	// to hard errors.
	Transient     bool
	Elements      int64
	ExchangeOps   int64
	ExchangeBytes int64
	CatchUps      int64
	// PartialStrips/Partials carry the per-strip reduce partials when
	// the round computed the grid output of a reduced DAG.
	PartialStrips []int64
	Partials      [][]float64
	// Tally is the round's input halo fetches and cache hits (round 0 and
	// catch-up) and its stage times.
	active.Tally
}

// ackMsg tells the client that one run of the final round is stored: the
// server wrote it and every other holder acknowledged its copy. It carries
// the run's reduce partials (nil when the DAG has no reduce), so a lost
// request's acked strips need no redispatch. One-way: nothing answers it.
type ackMsg struct {
	Token    string
	Strips   []int64
	Partials [][]float64
}

// acks is one compute node's ack port: its runs by token, each with the
// partial of every strip acked so far (nil for a DAG without a reduce).
// An ack for a token no run holds open is dropped. seq numbers the node's
// runs, so a token is never reused on it: an ack of an earlier run can
// never be taken for a later one's.
type acks struct {
	seq  int
	runs map[string]map[int64][]float64
}

// bandSpan is a global element range [Lo, Hi) within one strip.
type bandSpan struct {
	Strip  int64
	Lo, Hi int64
}

// bandReq pulls stored node state for a set of spans from their owner.
type bandReq struct {
	Token string
	Node  int
	Spans []bandSpan
}

// bandResp returns one value slice per requested span. The slices alias
// the owner's stored state and must not be mutated.
type bandResp struct {
	Err       string
	Transient bool
	Data      [][]float64
}

// runState is one server's view of one pipeline run: the compiled plan
// and the retained per-node per-strip values. inc records the server
// incarnation the state was built under; a restart wipes it, exactly as
// a crash wipes real memory.
type runState struct {
	plan  *Plan
	in    *pfs.FileMeta
	inc   uint64
	state map[int]map[int64][]float64
}

// Service runs the pipeline helper on every storage server.
type Service struct {
	fs    *pfs.FileSystem
	reg   *kernels.Registry
	combs *kernels.CombinerRegistry
	reds  *kernels.ReducerRegistry
	cache *cache.Manager
	// runs is per-server token state; the DES engine serializes handler
	// execution, so no locking is needed.
	runs []map[string]*runState
	// acks is each compute node's ack port, by node id.
	acks []*acks
}

// SetCache attaches the halo-strip cache manager (nil detaches): input
// halo fetches consult it and intermediate-band pulls feed file heat.
func (svc *Service) SetCache(m *cache.Manager) { svc.cache = m }

// Deploy serves the pipeline port of each storage node, one handler
// process per message, as pfs serves its own, and the ack port of each
// compute node. Nil combiner or reducer registries install the defaults.
func Deploy(fs *pfs.FileSystem, reg *kernels.Registry, combs *kernels.CombinerRegistry, reds *kernels.ReducerRegistry) *Service {
	if combs == nil {
		combs = kernels.DefaultCombiners()
	}
	if reds == nil {
		reds = kernels.DefaultReducers()
	}
	svc := &Service{fs: fs, reg: reg, combs: combs, reds: reds, runs: make([]map[string]*runState, fs.Servers())}
	clu := fs.Cluster()
	for s := 0; s < fs.Servers(); s++ {
		svc.runs[s] = make(map[string]*runState)
		srv := fs.Server(s)
		clu.Net.Node(srv.NodeID()).Port(Port).SetDispatcher(func(msg simnet.Message) {
			clu.Eng.Spawn("pipe-handle", func(h *sim.Proc) { svc.handle(h, srv, msg) })
		})
	}
	svc.acks = make([]*acks, clu.Cfg.ComputeNodes)
	for i := range svc.acks {
		a := &acks{runs: make(map[string]map[int64][]float64)}
		svc.acks[i] = a
		clu.Net.Node(clu.ComputeID(i)).Port(AckPort).SetDispatcher(func(msg simnet.Message) {
			ack := msg.Payload.(ackMsg)
			got, ok := a.runs[ack.Token]
			if !ok {
				return
			}
			for j, s := range ack.Strips {
				var partial []float64
				if ack.Partials != nil {
					partial = ack.Partials[j]
				}
				got[s] = partial
			}
		})
	}
	return svc
}

// CheckReleased reports pipeline state that outlived its run: a token a
// storage server still holds state for, or a compute node's ack port
// still holds open. A run releases both on every exit (Client.Run), so
// once the engine is quiescent neither holds any. Every core.System run
// calls it beside pfs's CheckSeals.
func (svc *Service) CheckReleased() error {
	var held []string
	for s, runs := range svc.runs {
		for token := range runs {
			held = append(held, fmt.Sprintf("server %d holds the state of %s", s, token))
		}
	}
	for node, a := range svc.acks {
		for token := range a.runs {
			held = append(held, fmt.Sprintf("compute node %d awaits the acks of %s", node, token))
		}
	}
	if len(held) == 0 {
		return nil
	}
	slices.Sort(held)
	return fmt.Errorf("pipeline: run state outlived its run: %s", strings.Join(held, "; "))
}

func (svc *Service) handle(p *sim.Proc, srv *pfs.Server, msg simnet.Message) {
	clu := svc.fs.Cluster()
	switch req := msg.Payload.(type) {
	case stageReq:
		resp, err := svc.stage(p, srv, req, msg.From)
		if err != nil {
			resp = stageResp{Err: err.Error(), Transient: transientErr(err)}
		}
		size := pfs.HeaderBytes + int64(len(resp.Partials))*partialBytes(resp.Partials)
		clu.Net.Respond(p, msg, resp, size, clu.ClassBetween(srv.NodeID(), msg.From))
	case bandReq:
		resp := svc.band(srv, req)
		size := int64(pfs.HeaderBytes)
		for _, d := range resp.Data {
			size += int64(len(d)) * grid.ElemSize
		}
		clu.Net.Respond(p, msg, resp, size, clu.ClassBetween(srv.NodeID(), msg.From))
	case releaseReq: // a one-way Send (Client.release): nothing awaits a reply
		delete(svc.runs[srv.Index()], req.Token)
	default:
		clu.Net.Respond(p, msg, stageResp{Err: fmt.Sprintf("pipeline: unknown request %T", msg.Payload)},
			pfs.HeaderBytes, clu.ClassBetween(srv.NodeID(), msg.From))
	}
}

func partialBytes(partials [][]float64) int64 {
	if len(partials) == 0 {
		return 0
	}
	return int64(len(partials[0])) * grid.ElemSize
}

// transientErr reports whether the coordinator can cure the failure by
// reassigning strips with catch-up.
type transient struct{ error }

func transientErr(err error) bool {
	_, ok := err.(transient)
	return ok
}

// runStateFor returns (building if needed) this server's state for the
// request's token, purging it first when the server restarted since it
// was built: a new incarnation's memory starts empty. The plan is fused
// to the request's depth, which must lie in [1, the leading chain].
func (svc *Service) runStateFor(srv *pfs.Server, req stageReq, in *pfs.FileMeta) (*runState, error) {
	clu := svc.fs.Cluster()
	inc := clu.Faults.Incarnation(srv.NodeID())
	rs, ok := svc.runs[srv.Index()][req.Token]
	if ok && rs.inc != inc {
		delete(svc.runs[srv.Index()], req.Token)
		ok = false
	}
	if !ok {
		pl, err := Compile(req.DAG, svc.reg, svc.combs, svc.reds, in.Width, 0)
		if err != nil {
			return nil, err
		}
		if err := pl.fuse(req.Depth); err != nil {
			return nil, err
		}
		rs = &runState{plan: pl, in: in, inc: inc, state: make(map[int]map[int64][]float64)}
		svc.runs[srv.Index()][req.Token] = rs
	}
	return rs, nil
}

// stage computes one dispatch round over the request's strips, walking
// their runs through the servers' one run loop (active.WalkRuns): a run's
// operands are assembled one run ahead (a round that reads the input
// sends the next run's fetches as this one's assembly starts), it is
// evaluated on p, and in the final round its output goes through exec's
// store, written one run behind while its replica forwards leave one
// process per holder. Once a final-round run is stored on every holder,
// the client node from is sent its ack, unless this server has crashed
// since it took the request.
func (svc *Service) stage(p *sim.Proc, srv *pfs.Server, req stageReq, from int) (stageResp, error) {
	clu := svc.fs.Cluster()
	inc := clu.Faults.Incarnation(srv.NodeID())
	in, out, err := svc.fs.RasterPair(req.Input, req.Output)
	if err != nil {
		return stageResp{}, err
	}
	rs, err := svc.runStateFor(srv, req, in)
	if err != nil {
		return stageResp{}, err
	}
	pl := rs.plan
	if req.Round < 0 || req.Round >= pl.Rounds() {
		return stageResp{}, fmt.Errorf("pipeline: round %d of %d", req.Round, pl.Rounds())
	}
	node := pl.RoundNode(req.Round)
	n := pl.Nodes[node]
	final := req.Round == pl.Rounds()-1

	// The fused prefix, a catch-up and a second DAG root evaluate their
	// targets' lineage from the durable input; any other round evaluates
	// its node from its parents' values.
	lin, fromInput := pl.work(req.Round, req.CatchUp)
	// A catch-up's compute is recovery work, traced as such.
	label := n.ID
	if req.CatchUp {
		label = "catch-up " + lin.ops(pl)
	}

	var resp stageResp
	st := active.NewStages(svc.fs, svc.cache, srv, in, out, active.FetchRows, lin.depth, active.HaloStrips(in, lin.depth), &resp.Tally)
	assemble := func(a *sim.Proc, run active.StripRun) (operands, error) {
		if fromInput {
			band, err := st.Assemble(a, run)
			return operands{band}, err
		}
		e0, e1 := run.Lo/in.ElemSize, run.Hi/in.ElemSize
		plo, phi := e0, e1
		if n.Kind == kernels.KindKernel {
			plo, phi = grid.HaloRange(e0, e1, n.Halo, in.Size/in.ElemSize)
		}
		var ops operands
		for i, pa := range n.Parents {
			band, err := svc.parentValues(a, srv, rs, in, req, pa, e0, e1, plo, phi, &resp)
			if err != nil {
				ops.Release()
				return operands{}, err
			}
			ops[i] = band
		}
		return ops, nil
	}

	compute := func(run active.StripRun, ops operands) func(*sim.Proc) error {
		e0, e1 := run.Lo/in.ElemSize, run.Hi/in.ElemSize
		var weighted float64
		charge := func(elems int64, w float64) { weighted += float64(elems) * w }
		// The values are kept past the round — as state, or as the stored
		// output — so they are ordinary allocations; what they are computed
		// from is read in place.
		var vals [][]float64
		if fromInput {
			vals = pl.evalFromInput(lin, e0, e1, ops[0], charge)
		} else {
			vals = make([][]float64, len(pl.Nodes))
			vals[node] = make([]float64, e1-e0)
			if n.Kind == kernels.KindKernel {
				pl.applyKernel(vals[node], node, ops[0], charge)
			} else {
				pl.applyCombine(vals[node], node, ops[0], ops[1], charge)
			}
		}
		ops.Release()
		if req.CatchUp {
			resp.CatchUps += run.Last - run.First + 1
		}

		// Retain per-strip state sub-slices for later rounds' reads and
		// pulls. Slices are never mutated once stored, so pulls can alias
		// them safely.
		for ni := 0; ni <= node; ni++ {
			v := vals[ni]
			if v == nil || !pl.Nodes[ni].Retain {
				continue
			}
			kept := rs.state[ni]
			if kept == nil {
				kept = make(map[int64][]float64)
				rs.state[ni] = kept
			}
			for t := run.First; t <= run.Last; t++ {
				tLo, tHi := in.StripBounds(t)
				kept[t] = v[tLo/in.ElemSize-e0 : tHi/in.ElemSize-e0]
			}
		}
		st.Compute(p, sim.Time(weighted*clu.Cfg.ComputeNsPerElem), label, e1-e0)
		resp.Elements += e1 - e0
		if !final {
			return nil
		}

		gridVals := vals[pl.GridOut]
		ack := ackMsg{Token: req.Token}
		for t := run.First; t <= run.Last; t++ {
			ack.Strips = append(ack.Strips, t)
		}
		if pl.Reduce >= 0 {
			red := pl.Nodes[pl.Reduce]
			total := in.Size / in.ElemSize
			for t := run.First; t <= run.Last; t++ {
				tLo, tHi := in.StripBounds(t)
				se0, se1 := tLo/in.ElemSize, tHi/in.ElemSize
				b := grid.BandOver(in.Width, total, se0, se1, se0, gridVals[se0-e0:se1-e0])
				resp.PartialStrips = append(resp.PartialStrips, t)
				resp.Partials = append(resp.Partials, red.Reducer.ReduceBand(b))
				b.Release()
			}
			ack.Partials = resp.Partials[len(resp.Partials)-len(ack.Strips):]
			st.Compute(p, clu.ComputeTime(e1-e0, red.Weight), red.ID, e1-e0)
		}
		// The grid output's own memory becomes the stored strips, here and
		// on the replica holders: values are never written again once a
		// node has produced them (retained state relies on the same rule).
		return st.Store(p, run, gridVals, func() {
			if clu.Faults.Gone(srv.NodeID(), inc) {
				return
			}
			clu.Net.SendAsync(simnet.Message{
				From:    srv.NodeID(),
				To:      from,
				Port:    AckPort,
				Size:    pfs.HeaderBytes + int64(len(ack.Partials))*partialBytes(ack.Partials),
				Class:   clu.ClassBetween(srv.NodeID(), from),
				Payload: ack,
			})
		})
	}

	// A round that reads the input leads its next run's fetches as exec
	// does; one that pulls its parents has no input fetch to lead.
	var lead func(*sim.Proc, active.StripRun)
	if fromInput {
		lead = st.Lead
	}
	err = active.WalkRuns(p, active.StripRuns(in, req.Strips), lead, assemble, compute, st.Stalled(p))
	if err := st.Drain(p, err); err != nil {
		return stageResp{}, err
	}
	return resp, nil
}

// operands are what one run of a round is computed from, assembled one
// run ahead: the input band, or a band of each parent's values — two for
// a combine, which WalkRuns carries as one value.
type operands [2]*grid.Band

// Release releases every band held.
func (o operands) Release() {
	for _, b := range o {
		if b != nil {
			b.Release()
		}
	}
}

// parentValues assembles a parent node's values over global element range
// [plo, phi) as a band owning [e0, e1), and copies none of them: a strip
// whose state this server retains is lent as it is kept, the missing ones
// are batched into per-owner band pulls, and what a pull returns — slices
// of the owner's own state — is lent as it arrives. State is never
// written once kept, and a slice the band holds stays good whatever its
// owner goes on to drop, so the band is readable until released; the
// caller owes that Release. On an error the band is already released. The
// wait for pulls is the round's Fetch, traced on the server's read lane.
func (svc *Service) parentValues(p *sim.Proc, srv *pfs.Server, rs *runState, in *pfs.FileMeta,
	req stageReq, parent int, e0, e1, plo, phi int64, resp *stageResp) (*grid.Band, error) {
	band := grid.NewBandLent(in.Width, in.Size/in.ElemSize, e0, e1, plo, phi)
	st := rs.state[parent]
	elemsPerStrip := in.StripSize / in.ElemSize
	type pull struct {
		owner int
		spans []bandSpan
	}
	var pulls []pull // a handful of owners at most: found by scanning
	for t := plo / elemsPerStrip; t*elemsPerStrip < phi; t++ {
		tLo, tHi := in.StripBounds(t)
		se0, se1 := tLo/in.ElemSize, tHi/in.ElemSize
		if v, ok := st[t]; ok {
			band.LendValues(se0, v) // clipped to [plo, phi)
			continue
		}
		if req.Owners == nil || t >= int64(len(req.Owners)) || req.Owners[t] < 0 {
			band.Release()
			return nil, transient{fmt.Errorf("pipeline: no state owner for strip %d of %q node %d", t, req.Token, parent)}
		}
		owner := int(req.Owners[t])
		if owner == srv.Index() {
			// The coordinator thinks this server owns the strip but the
			// state is gone — a restart wiped it.
			band.Release()
			return nil, transient{fmt.Errorf("pipeline: state for strip %d of %q lost at server %d", t, req.Token, owner)}
		}
		i := 0
		for i < len(pulls) && pulls[i].owner != owner {
			i++
		}
		if i == len(pulls) {
			pulls = append(pulls, pull{owner: owner})
		}
		pulls[i].spans = append(pulls[i].spans, bandSpan{Strip: t, Lo: max(plo, se0), Hi: min(phi, se1)})
	}
	if len(pulls) == 0 {
		return band, nil
	}

	clu := svc.fs.Cluster()
	reqs := make([]active.Request, len(pulls))
	for i, pu := range pulls {
		reqs[i] = active.Request{Srv: pu.owner, Size: pfs.HeaderBytes,
			Payload: bandReq{Token: req.Token, Node: parent, Spans: pu.spans}}
	}
	// The fan-out gives up on either end crashing: a down puller's request
	// (or the response back to it) is silently dropped. The deadline is a
	// final backstop against lost messages neither liveness check explains.
	pullStart := p.Now()
	results := active.FanOut(p, svc.fs, srv.NodeID(), Port, reqs, pfs.CallTimeout*(pfs.CallRetries+1))
	resp.Phases.Fetch += p.Now() - pullStart
	if clu.Trace != nil {
		clu.Trace.Record(pullStart, p.Now()-pullStart, active.Lane(srv, "read"), "exchange",
			fmt.Sprintf("%d pulls of node %q for strips %d-%d", len(pulls), rs.plan.Nodes[parent].ID, e0/elemsPerStrip, (e1-1)/elemsPerStrip))
	}
	var pullErr error
	for i, r := range results {
		got, ok := r.Payload.(bandResp)
		if !ok {
			pullErr = transient{fmt.Errorf("pipeline: band pull to server %d lost", pulls[i].owner)}
			continue
		}
		if got.Err != "" {
			err := fmt.Errorf("pipeline: %s", got.Err)
			if got.Transient {
				pullErr = transient{err}
			} else {
				pullErr = err
			}
			continue
		}
		for j, span := range pulls[i].spans {
			v := got.Data[j]
			band.LendValues(span.Lo, v) // the owner's state itself: bandResp aliases it
			resp.ExchangeOps++
			resp.ExchangeBytes += int64(len(v)) * grid.ElemSize
		}
	}
	if pullErr != nil {
		band.Release()
		return nil, pullErr
	}
	return band, nil
}

// band serves a pull from this server's stored state. Free on the DES
// clock beyond the wire: the values already sit in memory.
func (svc *Service) band(srv *pfs.Server, req bandReq) bandResp {
	clu := svc.fs.Cluster()
	rs, ok := svc.runs[srv.Index()][req.Token]
	if ok && rs.inc != clu.Faults.Incarnation(srv.NodeID()) {
		delete(svc.runs[srv.Index()], req.Token)
		ok = false
	}
	if !ok {
		return bandResp{Err: fmt.Sprintf("pipeline: state for %q lost at server %d", req.Token, srv.Index()), Transient: true}
	}
	st := rs.state[req.Node]
	data := make([][]float64, len(req.Spans))
	for i, span := range req.Spans {
		v, ok := st[span.Strip]
		if !ok {
			return bandResp{Err: fmt.Sprintf("pipeline: state for strip %d of %q lost at server %d", span.Strip, req.Token, srv.Index()), Transient: true}
		}
		tLo, _ := rs.in.StripBounds(span.Strip)
		data[i] = v[span.Lo-tLo/rs.in.ElemSize : span.Hi-tLo/rs.in.ElemSize]
	}
	return bandResp{Data: data}
}
