package core

import (
	"errors"
	"fmt"
	"slices"

	"github.com/hpcio/das/internal/active"
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/pfs"
	"github.com/hpcio/das/internal/predict"
	"github.com/hpcio/das/internal/restripe"
	"github.com/hpcio/das/internal/sim"
)

// startup charges the per-run job-launch overhead on every participating
// node's worker process.
func (s *System) startup(p *sim.Proc) { p.Sleep(s.Clu.Cfg.Startup) }

// execute serves one kernel request on the platform alone: the DAS
// reconfigure step, the request's job on a process of its own (a migrated
// request runs under the price it migrated on), and — when an offload
// strands strips with no live copy mid-run — the request again as normal
// I/O over a fresh output. ExecTime includes the migration and
// the abandoned attempt.
func (s *System) execute(rep *Report, req Request, in *pfs.FileMeta) error {
	priced, err := s.reconfigure(rep, req, in)
	if err != nil {
		return err
	}
	job, err := s.job(rep, req, in, priced)
	if err != nil {
		return err
	}
	attemptStart := s.Clu.Eng.Now()
	rep.ExecTime, err = s.run(req.Scheme.String()+"-"+req.Op, job)
	if err != nil && rep.Offloaded && errors.Is(err, pfs.ErrNoLiveCopy) {
		wasted := s.Clu.Eng.Now() - attemptStart
		s.FS.Delete(req.Output)
		rep.Stats = active.ExecStats{}
		rep.Offloaded, rep.Degraded, rep.DegradedReason = false, true, err.Error()
		if job, err = s.tsJob(rep, req, in); err == nil {
			rep.ExecTime, err = s.run("TS-"+req.Op, job)
		}
		rep.ExecTime += wasted
	}
	rep.ExecTime += rep.ReconfigTime
	return err
}

// reconfigure is steps 2–3 of Fig. 3: a DAS request that allows
// redistribution has its input migrated to the layout planned for its
// operator, when the gate prices that layout accepted — otherwise the
// migration cost buys nothing. It returns the Decision the input migrated
// on, which the request then runs under: the planned layout is priced
// once. Nil means nothing migrated. The request drains the migration on
// its own process through the system's one migrator. A degraded cluster
// keeps the layout it has, a file migrating elsewhere its dual layout; a
// migration to the planned layout (a failed drain's, say) resumes.
func (s *System) reconfigure(rep *Report, req Request, in *pfs.FileMeta) (*predict.Decision, error) {
	if req.Scheme != DAS || !req.Reconfigure || s.Clu.AnyStorageDown() {
		return nil, nil
	}
	planned, err := s.PlanLayout(req.Op, in.Width, in.ElemSize, in.StripSize, in.Size, 0)
	if err != nil || planned.Name() == in.Layout.Name() {
		return nil, err
	}
	if dual, migrating := in.Layout.(*layout.Migrating); migrating && dual.Target().Name() != planned.Name() {
		return nil, nil
	}
	pat, _ := s.Features.Lookup(req.Op) // PlanLayout found it
	d, err := s.decide(predict.Kernel(pat), predictParams(in), planned, req.Input)
	if err != nil || !d.Offload {
		return nil, err
	}
	if s.migrator == nil {
		if s.migrator, err = restripe.NewMigrator(s.Clu, s.FS, restripe.Config{}); err != nil {
			return nil, err
		}
		s.wire()
	}
	rt, err := s.run("das-reconfig-"+req.Input, func(p *sim.Proc) error {
		return s.migrator.Migrate(p, req.Input, planned)
	})
	if err != nil {
		return nil, err
	}
	rep.Reconfigured, rep.ReconfigTime = true, rt
	return &d, nil
}

// job prepares one kernel request's execution as a job function, which
// Execute runs on a process of its own and ExecuteConcurrent alongside the
// rest of its batch. It is the one place a request's scheme decides
// anything: TS serves normal I/O, NAS offloads unconditionally, DAS lets
// the gate choose — or, when the reconfigure step migrated the input,
// takes the Decision it migrated on (priced, nil otherwise). The output
// is created here, so a batch fails fast on a name collision.
func (s *System) job(rep *Report, req Request, in *pfs.FileMeta, priced *predict.Decision) (func(p *sim.Proc) error, error) {
	switch req.Scheme {
	case TS:
		return s.tsJob(rep, req, in)
	case NAS:
		return s.offloadJob(rep, req, in, req.NASFetchMode)
	case DAS:
		return s.gateDAS(rep, req, in, priced)
	}
	return nil, fmt.Errorf("core: unknown scheme %v", req.Scheme)
}

// gateDAS is steps 1 and 4–5 of Fig. 3 for one kernel request: look up the
// operator's dependence pattern, predict the bandwidth cost against the
// input's layout under what the platform has observed (with servers down
// strips are costed where layout.Placer places them, the schedule Exec
// dispatches, and any strip without a live copy vetoes offloading
// outright) unless reconfigure already priced it, record the decision in
// rep, and offload with the fetch mode the decision allows or — rejected
// — serve the request as normal I/O. Normal I/O is no side to reject to
// while an output strip's primary is down: a servable request then
// offloads to the live holders, degraded.
func (s *System) gateDAS(rep *Report, req Request, in *pfs.FileMeta, priced *predict.Decision) (func(p *sim.Proc) error, error) {
	decision := priced
	if decision == nil {
		pat, ok := s.Features.Lookup(req.Op)
		if !ok {
			return nil, fmt.Errorf("core: no kernel features for %q", req.Op)
		}
		d, err := s.decide(predict.Kernel(pat), predictParams(in), in.Layout, req.Input)
		if err != nil {
			return nil, err
		}
		decision = &d
	}
	rep.Decision = decision
	if !decision.Offload && !req.DisablePrediction {
		if decision.Analysis.UnservableStrips > 0 {
			rep.Degraded = true
			rep.DegradedReason = decision.Reason
			return s.tsJob(rep, req, in)
		}
		strip, srv, down := s.downPrimary(in)
		if !down {
			return s.tsJob(rep, req, in)
		}
		// Normal I/O writes each output strip through its primary, which
		// cannot take a write while it is down: offload to the live
		// holders, as a forced offload does.
		rep.Degraded = true
		rep.DegradedReason = fmt.Sprintf("normal I/O cannot write output strip %d: its primary, server %d, is down; offloaded to the live holders (%s)",
			strip, srv, decision.Reason)
	}
	if _, migrating := in.Layout.(*layout.Migrating); !decision.Analysis.LocalByLayout || migrating {
		// Accepted on cost grounds without full locality (dependence is
		// cheap, or prediction is disabled): fetch what is missing. A
		// mid-migration input also loses the local-only guarantee — strips
		// keep flipping between placements while servers execute, so
		// missing halo data must stay fetchable.
		return s.offloadJob(rep, req, in, active.FetchWholeStrips)
	}
	return s.offloadJob(rep, req, in, active.LocalOnly)
}

// downPrimary returns the first strip of in whose primary — the write
// point of the output strip createOutput places with it — is a storage
// server that is down.
func (s *System) downPrimary(in *pfs.FileMeta) (strip int64, srv int, down bool) {
	if !s.Clu.AnyStorageDown() {
		return 0, 0, false
	}
	for strip = 0; strip < in.Strips(); strip++ {
		if srv = in.Layout.Primary(strip); s.Clu.ServerDown(srv) {
			return strip, srv, true
		}
	}
	return 0, 0, false
}

// offloadJob prepares an active storage execution: NAS's, or an accepted
// DAS request's.
func (s *System) offloadJob(rep *Report, req Request, in *pfs.FileMeta, mode active.FetchMode) (func(p *sim.Proc) error, error) {
	if _, err := s.createOutput(req.Output, in); err != nil {
		return nil, err
	}
	rep.Offloaded = true
	return func(p *sim.Proc) error {
		s.startup(p)
		stats, err := active.NewClient(s.FS, s.Clu.ComputeID(0)).
			Exec(p, req.Op, req.Input, req.Output, mode)
		rep.Stats = stats
		return err
	}, nil
}

// createOutput creates a request's output file with its input's geometry
// and placement: the input's layout, frozen into a per-strip snapshot when
// the input is mid-migration. An output sharing a live dual layout would
// keep shifting under its writers — strips would land where the placement
// pointed at write time but be read back where it points later. The
// snapshot pins one consistent placement for the output's whole life.
func (s *System) createOutput(name string, in *pfs.FileMeta) (*pfs.FileMeta, error) {
	return s.FS.Create(name, in.Size, layout.Concrete(in.Layout, in.Strips()), pfs.CreateOptions{
		StripSize: in.StripSize, Width: in.Width, Height: in.Height, ElemSize: in.ElemSize,
	})
}

// tsBlock is one compute node's share of a request served as normal I/O:
// strips [first, last] of the input, on compute node w.
type tsBlock struct {
	w           int
	first, last int64
}

// tsBlocks splits the input's strips into contiguous blocks of
// ⌈strips/nodes⌉, one per compute node in node order; a node the split
// leaves nothing gets no block.
func (s *System) tsBlocks(in *pfs.FileMeta) []tsBlock {
	strips := in.Strips()
	workers := s.Clu.Cfg.ComputeNodes
	perWorker := (strips + int64(workers) - 1) / int64(workers)
	var blocks []tsBlock
	for w := 0; w < workers; w++ {
		first := int64(w) * perWorker
		if last := min(first+perWorker-1, strips-1); first <= last {
			blocks = append(blocks, tsBlock{w, first, last})
		}
	}
	return blocks
}

// tsJob prepares the request's execution under Traditional Storage:
// compute nodes read contiguous blocks of the input (plus halo), run the
// kernel locally, and write the output strips back to the servers.
func (s *System) tsJob(rep *Report, req Request, in *pfs.FileMeta) (func(p *sim.Proc) error, error) {
	k, _ := s.Registry.Lookup(req.Op)
	out, err := s.createOutput(req.Output, in)
	if err != nil {
		return nil, err
	}
	total := in.Size / in.ElemSize
	maxAbs := kernels.Pattern(k).MaxAbsOffset(in.Width)
	blocks := s.tsBlocks(in)

	return func(p *sim.Proc) error {
		type workerResult struct {
			phases active.Phases
			err    error
		}
		sigs := make([]*sim.Signal[workerResult], 0, len(blocks))
		for _, b := range blocks {
			b := b
			done := sim.NewSignal[workerResult](s.Clu.Eng, "ts-worker")
			sigs = append(sigs, done)
			p.Spawn("ts-worker", func(c *sim.Proc) {
				ph, err := s.tsWorker(c, k, in, out, b.first, b.last, maxAbs, total, b.w)
				done.Fire(workerResult{phases: ph, err: err})
			})
		}
		for _, r := range sim.WaitAll(p, sigs) {
			if r.err != nil {
				return r.err
			}
			rep.Stats.Servers++
			rep.Stats.PhaseMax.MaxWith(r.phases)
		}
		return nil
	}, nil
}

// tsWorker processes strips [first, last] of the input on compute node w,
// returning its per-phase time decomposition. Under TS the "Fetch" phase
// is the client's read of the input from the storage servers and "Write"
// is the output write-back — the client↔server traffic DAS eliminates.
//
// The worker double-buffers, as an application over a parallel I/O
// library does: its block walks the storage servers' own run loop
// (active.WalkRuns), one stripe per run — reading stripe i+1 while it
// computes stripe i and writes stripe i−1 back. A stripe is Servers()
// consecutive strips, one per server under round-robin: what a parallel
// I/O library moves per buffer, a property of the file and not a setting.
func (s *System) tsWorker(p *sim.Proc, k kernels.Kernel, in, out *pfs.FileMeta, first, last, maxAbs, total int64, w int) (active.Phases, error) {
	var phases active.Phases
	s.startup(p)
	client := s.FS.NewClient(s.Clu.ComputeID(w))
	var runs []active.StripRun
	stripe := int64(s.FS.Servers())
	for t := first; t <= last; t += stripe {
		runLast := min(t+stripe-1, last)
		lo, _ := in.StripBounds(t)
		_, hi := in.StripBounds(runLast)
		runs = append(runs, active.StripRun{First: t, Last: runLast, Lo: lo, Hi: hi})
	}

	// Halo rows are read once. A stripe reads from where the last read
	// ended to the end of its halo, and its band is lent, besides, the
	// windows earlier stripes read that its halo reaches back into. Every
	// window is an owner's stored strip, read where it lies: a carried one
	// reads what it read when it was lent, whatever replaces the strip.
	type window struct {
		at  int64 // first element
		raw []byte
	}
	var carried []window
	var readTo int64 // one past the last byte read
	assemble := func(a *sim.Proc, run active.StripRun) (*grid.Band, error) {
		e0, e1 := run.Lo/in.ElemSize, run.Hi/in.ElemSize
		lo, hi := grid.HaloRange(e0, e1, maxAbs, total)
		band := grid.NewBandLent(in.Width, total, e0, e1, lo, hi)
		carried = slices.DeleteFunc(carried, func(c window) bool { return c.at+int64(len(c.raw))/in.ElemSize <= lo })
		for _, c := range carried {
			band.Lend(c.at, c.raw)
		}
		from := max(lo*in.ElemSize, readTo)
		readStart := a.Now()
		err := client.ReadLent(a, in.Name, from, hi*in.ElemSize-from, func(at int64, raw []byte) {
			band.Lend(at/in.ElemSize, raw)
			carried = append(carried, window{at / in.ElemSize, raw})
		})
		if err != nil {
			band.Release()
			return nil, err
		}
		readTo = hi * in.ElemSize
		phases.Fetch += a.Now() - readStart
		if s.Clu.Trace != nil {
			s.Clu.Trace.Record(readStart, a.Now()-readStart, tsLane(w, "read"), "read",
				fmt.Sprintf("%d bytes of %s", hi*in.ElemSize-from, in.Name))
		}
		return band, nil
	}

	// The output's bytes stay this client's: each primary copies what it
	// receives, so a stripe's floats go back to the pool once its writes
	// return. When a write fails the walk returns without starting the
	// next stripe's, and that stripe's floats go back here.
	type output struct {
		vals    []float64
		written bool
	}
	var computed *output
	compute := func(run active.StripRun, band *grid.Band) func(*sim.Proc) error {
		e0, e1 := run.Lo/in.ElemSize, run.Hi/in.ElemSize
		o := &output{vals: grid.GetFloats(int(e1 - e0))}
		computed = o
		k.ApplyBand(band, o.vals)
		band.Release()
		computeStart := p.Now()
		p.Sleep(s.Clu.ComputeTime(e1-e0, k.Weight()))
		phases.Compute += p.Now() - computeStart
		if s.Clu.Trace != nil {
			s.Clu.Trace.Record(computeStart, p.Now()-computeStart, tsLane(w, "compute"), "compute",
				fmt.Sprintf("%s over %d elements", k.Name(), e1-e0))
		}
		return func(wp *sim.Proc) error {
			o.written = true
			writeStart := wp.Now()
			err := client.Write(wp, out.Name, run.Lo, grid.Bytes(o.vals))
			grid.PutFloats(o.vals) // every writer has fired: nothing references the output
			if err != nil {
				return err
			}
			phases.Write += wp.Now() - writeStart
			if s.Clu.Trace != nil {
				s.Clu.Trace.Record(writeStart, wp.Now()-writeStart, tsLane(w, "write"), "write-back",
					fmt.Sprintf("strips %d-%d of %s", run.First, run.Last, out.Name))
			}
			return nil
		}
	}

	stalled := func(since sim.Time) {
		phases.Stall += p.Now() - since
		if s.Clu.Trace != nil {
			s.Clu.Trace.Record(since, p.Now()-since, tsLane(w, "compute"), "stall", "waiting for the next stripe or the last write")
		}
	}
	err := active.WalkRuns(p, runs, nil, assemble, compute, stalled)
	if computed != nil && !computed.written {
		grid.PutFloats(computed.vals)
	}
	return phases, err
}

// tsLane names one stage of a TS compute worker for trace events. The
// stages overlap, so each is an actor of its own, as a storage server's
// are.
func tsLane(w int, stage string) string { return fmt.Sprintf("ts-worker-%d/%s", w, stage) }
