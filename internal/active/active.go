// Package active implements the active storage layer of the DAS
// architecture (Fig. 2): an Active Storage Client on the compute side and
// an AS helper process on every storage server that invokes the processing
// kernels over the server's local strips through the local I/O API.
//
// The layer supports the fetch strategies the paper compares:
//
//   - FetchWholeStrips: when an element's dependence window leaves the
//     server's local holdings, the server requests the whole dependent
//     strips from their owners — the behaviour of existing ("normal")
//     active storage systems, whose cost §IV-B1 demonstrates.
//   - FetchRows: an optimized variant that requests only the byte range
//     actually needed from each dependent strip (the ablation showing DAS
//     wins even against a smarter NAS).
//   - LocalOnly: dependence must resolve from local strips and replicas;
//     reaching a missing element is an error. This is the mode DAS uses
//     after the prediction core has verified the layout (Eq. (17) or its
//     generalization), so any violation is a bug, not a fallback.
package active

import (
	"fmt"
	"slices"

	"github.com/hpcio/das/internal/cache"
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/pfs"
	"github.com/hpcio/das/internal/predict"
	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/simnet"
)

// Port is the mailbox active storage servers listen on.
const Port = "as"

const headerBytes = 128

// FetchMode selects how a server resolves dependent data it does not hold.
type FetchMode int

const (
	// FetchWholeStrips transfers entire dependent strips from their
	// owners, as existing active storage systems do.
	FetchWholeStrips FetchMode = iota
	// FetchRows transfers only the needed byte range of each dependent
	// strip.
	FetchRows
	// LocalOnly forbids remote fetches; dependence must be satisfied by
	// local strips and replicas.
	LocalOnly
)

// String names the mode for reports.
func (m FetchMode) String() string {
	switch m {
	case FetchWholeStrips:
		return "whole-strips"
	case FetchRows:
		return "rows"
	case LocalOnly:
		return "local-only"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// execReq asks one server to process its share of an offloaded operation.
type execReq struct {
	Op     string
	Input  string
	Output string
	Mode   FetchMode
	// Strips is the ascending set of strips this server must process, as
	// the client's dispatch loop assigned them.
	Strips []int64
}

// Phases breaks one worker's elapsed time into the pipeline stages the
// paper's analysis talks about. Durations are wall (simulated) time spent
// blocked in each stage, so queueing on a contended disk or NIC counts
// toward the stage that waited — exactly the "increased load" effect.
//
// A storage server's stages overlap (WalkRuns), so LocalRead, Fetch,
// Compute and Write do not add up to its elapsed time; each is what its
// stage was busy for. Fetch is what the assembler waited for dependent
// data after its local reads: from the third run on a server's fetches
// were sent a run early (Stages.Lead), and only the wait that remains
// counts. What adds up is the request's own process: the
// first run's LocalRead + Fetch, then Compute, then Stall, then the drain
// — the last run's Write and Forward — is the time from the request's
// arrival to its reply. An exec books a run's Compute part by part
// (Stages.Parts): the strips owed to other holders first, whose copies
// leave at that part's end, so Forward is only what is left of the last
// run's copies once its interior has computed and its write returned.
// A TS worker walks its stripes through the same
// stages, its Fetch being its reads of the input and Write its
// write-back: after startup, the first stripe's Fetch + Compute + Stall +
// the last stripe's Write is its elapsed time, and a block of one stripe
// has no Stall, so its Fetch + Compute + Write is.
type Phases struct {
	LocalRead sim.Time // local strip + replica reads through the disk
	Fetch     sim.Time // waiting for dependent data from other servers, once the local reads are done
	Compute   sim.Time // kernel execution
	Write     sim.Time // local output writes
	Stall     sim.Time // compute waiting for the next run's band or the previous run's write
	Forward   sim.Time // waiting, after the last write, for replica forwarding to complete
}

// Add accumulates another worker's phases.
func (ph *Phases) Add(o Phases) {
	ph.LocalRead += o.LocalRead
	ph.Fetch += o.Fetch
	ph.Compute += o.Compute
	ph.Write += o.Write
	ph.Stall += o.Stall
	ph.Forward += o.Forward
}

// MaxWith keeps, per phase, the larger of the two — the critical-path view
// across workers.
func (ph *Phases) MaxWith(o Phases) {
	ph.LocalRead = maxTime(ph.LocalRead, o.LocalRead)
	ph.Fetch = maxTime(ph.Fetch, o.Fetch)
	ph.Compute = maxTime(ph.Compute, o.Compute)
	ph.Write = maxTime(ph.Write, o.Write)
	ph.Stall = maxTime(ph.Stall, o.Stall)
	ph.Forward = maxTime(ph.Forward, o.Forward)
}

func maxTime(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}

// execResp reports one server's execution statistics. It travels by
// pointer: the stages of an exec, on their several processes, fill in the
// one value the reply then carries.
type execResp struct {
	Err      string
	Strips   int64 // primary strips processed
	Elements int64 // elements produced
	Tally
}

// ExecStats aggregates the per-server results of one offloaded operation.
type ExecStats struct {
	Servers       int
	Strips        int64
	Elements      int64
	RemoteFetches int64
	RemoteBytes   int64
	CacheHits     int64
	CacheHitBytes int64
	// PhaseMax holds, per phase, the busiest server's time — the
	// critical-path decomposition of the operation.
	PhaseMax Phases
	// Rounds is the number of dispatch waves the operation took: 1 on a
	// healthy cluster, more when mid-execution crashes forced strips to be
	// reassigned to replica holders.
	Rounds int
}

// Service runs the AS helper process on every storage server.
type Service struct {
	fs       *pfs.FileSystem
	registry *kernels.Registry
	reducers *kernels.ReducerRegistry
	// cache, when set, is the halo-strip cache subsystem: dependent
	// fetches consult the fetching server's cache first and feed every
	// miss back as a fresh entry plus a latency observation.
	cache *cache.Manager
}

// SetCache attaches the halo-strip cache manager (nil detaches).
func (svc *Service) SetCache(m *cache.Manager) { svc.cache = m }

// Deploy serves the AS port of each storage node of an existing file
// system, one helper process per message, as pfs serves its own. A nil
// reducer registry installs the defaults.
func Deploy(fs *pfs.FileSystem, registry *kernels.Registry, reducers *kernels.ReducerRegistry) *Service {
	if reducers == nil {
		reducers = kernels.DefaultReducers()
	}
	svc := &Service{fs: fs, registry: registry, reducers: reducers}
	clu := fs.Cluster()
	for s := 0; s < fs.Servers(); s++ {
		srv := fs.Server(s)
		clu.Net.Node(srv.NodeID()).Port(Port).SetDispatcher(func(msg simnet.Message) {
			clu.Eng.Spawn("as-exec", func(h *sim.Proc) { svc.handle(h, srv, msg) })
		})
	}
	return svc
}

func (svc *Service) handle(p *sim.Proc, srv *pfs.Server, msg simnet.Message) {
	clu := svc.fs.Cluster()
	switch req := msg.Payload.(type) {
	case execReq:
		respond := func(r *execResp) {
			clu.Net.Respond(p, msg, r, headerBytes, clu.ClassBetween(srv.NodeID(), msg.From))
		}
		resp, err := svc.exec(p, srv, req)
		if err != nil {
			respond(&execResp{Err: err.Error()})
			return
		}
		respond(resp)
	case reduceReq:
		svc.handleReduce(p, srv, msg)
	default:
		clu.Net.Respond(p, msg, &execResp{Err: fmt.Sprintf("unknown request %T", msg.Payload)},
			headerBytes, clu.ClassBetween(srv.NodeID(), msg.From))
	}
}

// exec processes every run of consecutive strips the request assigns this
// server through WalkRuns' three stages: assemble the run's band (local
// reads, replica reads, and — depending on the mode — remote fetches,
// sent a run before the rest of the assembly from the third run on),
// invoke the kernel — on the strips owed to other holders first, whose
// copies leave as soon as they are computed — and write the output strips
// locally while the rest of the replica copies are sent.
func (svc *Service) exec(p *sim.Proc, srv *pfs.Server, req execReq) (*execResp, error) {
	clu := svc.fs.Cluster()
	in, ok := svc.fs.Meta(req.Input)
	if !ok {
		return nil, fmt.Errorf("active: unknown input %q", req.Input)
	}
	out, ok := svc.fs.Meta(req.Output)
	if !ok {
		return nil, fmt.Errorf("active: unknown output %q", req.Output)
	}
	if in.Width == 0 || in.ElemSize == 0 {
		return nil, fmt.Errorf("active: input %q lacks raster metadata", req.Input)
	}
	if out.Size != in.Size || out.StripSize != in.StripSize {
		return nil, fmt.Errorf("active: output geometry differs from input")
	}
	k, ok := svc.registry.Lookup(req.Op)
	if !ok {
		return nil, fmt.Errorf("active: unknown operator %q", req.Op)
	}

	lc := in.Locator()
	total := in.Size / in.ElemSize
	pat := svc.registry.Pattern(req.Op)
	maxAbs := pat.MaxAbsOffset(in.Width)
	offs := pat.Resolve(in.Width)

	resp := new(execResp)
	st := NewStages(svc.fs, svc.cache, srv, in, out, req.Mode, &resp.Tally)
	runs := StripRuns(in, req.Strips)
	// Assemblers never overlap: one list serves every run's needed strips,
	// and started counts the assemblies begun.
	var needed []int64
	neededBy := func(run StripRun) []int64 {
		needed = predict.NeededStrips(needed, lc, offs, run.Lo/in.ElemSize, run.Hi/in.ElemSize, total)
		return needed
	}
	started := 0
	assemble := func(a *sim.Proc, run StripRun) (*grid.Band, error) {
		// Starting run i's assembly, i ≥ 1, sends run i+1's fetches
		// (Stages.Lead), which splits that run's strips for its Assemble;
		// runs 0 and 1 split and send their own.
		i := started
		started++
		if i >= 1 && i+1 < len(runs) {
			st.Lead(a, runs[i+1], maxAbs, neededBy(runs[i+1]))
		}
		if i >= 2 {
			return st.Assemble(a, run, maxAbs, nil)
		}
		return st.Assemble(a, run, maxAbs, neededBy(run))
	}
	// The output is allocated once, as the memory the store will hold:
	// nothing writes it after the kernel returns. The run computes part
	// by part (Stages.Parts), each over its ranges of the one band; the
	// forwards of every part but the last leave when its compute ends, and
	// the last part's with the run's Store, at the same instant.
	compute := func(run StripRun, band *grid.Band) func(w *sim.Proc) error {
		e0, e1 := run.Lo/in.ElemSize, run.Hi/in.ElemSize
		outVals := make([]float64, e1-e0)
		parts := st.Parts(run)
		for i, part := range parts {
			var elems int64
			for _, r := range part {
				lo, hi := r.Lo/in.ElemSize, r.Hi/in.ElemSize
				sub := band.Narrow(lo, hi)
				k.ApplyBand(sub, outVals[lo-e0:hi-e0])
				sub.Release()
				elems += hi - lo
			}
			st.Compute(p, clu.ComputeTime(elems, k.Weight()), req.Op, elems)
			if i+1 < len(parts) {
				st.Forward(p, run, part, outVals)
			}
		}
		band.Release()
		resp.Elements += e1 - e0
		resp.Strips += run.Last - run.First + 1
		return st.Store(p, run, outVals, nil)
	}
	err := WalkRuns(p, runs, assemble, compute, st.Stalled(p))
	if err := st.Drain(p, err); err != nil {
		return nil, err
	}
	return resp, nil
}

// StripRun is a maximal run of consecutive strips processed as one band,
// with its byte range [Lo, Hi). Both the AS exec path and the pipeline
// pushdown assemble their per-server work this way: one run reads shared
// halo data once instead of once per strip.
type StripRun struct {
	First, Last int64
	Lo, Hi      int64
}

// StripRuns splits an explicit ascending strip list into maximal
// consecutive runs under a file's geometry.
func StripRuns(m *pfs.FileMeta, strips []int64) []StripRun {
	var runs []StripRun
	for _, s := range strips {
		lo, hi := m.StripBounds(s)
		if n := len(runs); n > 0 && runs[n-1].Last == s-1 {
			runs[n-1].Last = s
			runs[n-1].Hi = hi
			continue
		}
		runs = append(runs, StripRun{First: s, Last: s, Lo: lo, Hi: hi})
	}
	return runs
}

// Client is the Active Storage Client from Fig. 2, bound to a compute
// node: it dispatches offloaded operations to every storage server and
// aggregates their statistics.
type Client struct {
	fs          *pfs.FileSystem
	nodeID      int
	execRetries *metrics.Counter // recovery.exec_retries
}

// NewClient binds an active storage client to a node.
func NewClient(fs *pfs.FileSystem, nodeID int) *Client {
	return &Client{fs: fs, nodeID: nodeID, execRetries: fs.Cluster().Counters.Counter("recovery.exec_retries")}
}

// Exec offloads op over input, producing output (which must already be
// created with the same geometry), and returns once every strip has been
// processed. It runs the dispatch loop under the output's layout: a strip
// is processed, and its result stored, on a live holder of its output
// strip — where readers will look for it, the input mid-migration or
// not — its primary unless that is down, and a server that crashes
// mid-execution has its strips reassigned to the other holders.
func (c *Client) Exec(p *sim.Proc, op, input, output string, mode FetchMode) (ExecStats, error) {
	out, ok := c.fs.Meta(output)
	if !ok {
		return ExecStats{}, fmt.Errorf("active: unknown output %q", output)
	}
	ask := func(assign [][]int64, _ bool) func(int) Request {
		return func(srv int) Request {
			// LocalOnly holds where the verified layout placed the strip: on
			// its primary. A strip placed on another holder has its halo off
			// that node, so the request fetches whole strips instead.
			m := mode
			if m == LocalOnly && slices.ContainsFunc(assign[srv], func(s int64) bool { return out.Layout.Primary(s) != srv }) {
				m = FetchWholeStrips
			}
			return Request{Payload: execReq{Op: op, Input: input, Output: output, Mode: m, Strips: assign[srv]}, Size: headerBytes}
		}
	}
	var stats ExecStats
	take := func(_ int, strips []int64, rp Reply) ([]int64, error) {
		if rp.Lost {
			return strips, nil
		}
		r, ok := rp.Payload.(*execResp)
		if !ok {
			return nil, fmt.Errorf("active: unexpected response type %T", rp.Payload)
		}
		if r.Err != "" {
			return nil, remoteErr(input, r.Err)
		}
		stats.Strips += r.Strips
		stats.Elements += r.Elements
		stats.RemoteFetches += r.RemoteFetches
		stats.RemoteBytes += r.RemoteBytes
		stats.CacheHits += r.CacheHits
		stats.CacheHitBytes += r.CacheHitBytes
		stats.PhaseMax.MaxWith(r.Phases)
		return nil, nil
	}
	retries, servers, err := c.Dispatch(p, Port, input, out.Layout, out.Strips(), nil, ask, take)
	if err != nil {
		return ExecStats{}, err
	}
	stats.Rounds, stats.Servers = retries+1, servers
	return stats, nil
}
