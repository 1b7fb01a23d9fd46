package active

import "github.com/hpcio/das/internal/sim"

// WalkRuns is the one body for "walk my runs": three stages, double
// buffered, so a node's disk, CPU and NIC work at once. A storage server
// walks its runs of strips through it for a kernel (exec), a reduction
// (handleReduce) and a pipeline round, and a TS compute node walks its
// block through it one stripe at a time.
//
//	assemble   run i+1 on a child process, started when compute i starts
//	compute    run i on p, the request's own process
//	write      run i−1 on a child process; compute i waits for it before
//	           handing over the write it returns
//
// The depth is the constant one: one band prefetched, one write behind.
// The first run is assembled on p and the last run's write runs on p, so a
// single run takes the steps it would take with no stages at all. What a
// run is assembled into is B: one band, or — for a pipeline round that
// combines two parents — the pair, travelling as one value. compute
// releases what it is handed and returns the run's write stage, nil when
// the run stores nothing (a reduction, a pipeline round before the last).
//
// lead, when non-nil, sends a run's dependent-strip fetches ahead of its
// assembly (Stages.Lead): the assembler of run i, for every i ≥ 1, leads
// run i+1 before it assembles run i, for a fetch's round trip outlasts a
// run's share of the ingress NIC. Run 0 leads nothing, so run 1 sends its
// own; a walk of two runs has no run to lead.
//
// stalled, when non-nil, is told each time p has had to wait for the
// assembler or the writer, with when the wait began. On an error the loop
// joins whichever of the two is still out, releases a band prefetched for
// a run that will not compute, and returns the first error.
func WalkRuns[B interface{ Release() }](p *sim.Proc, runs []StripRun,
	lead func(a *sim.Proc, run StripRun),
	assemble func(a *sim.Proc, run StripRun) (B, error),
	compute func(run StripRun, band B) (write func(w *sim.Proc) error),
	stalled func(since sim.Time),
) (err error) {
	type assembled struct {
		band B
		err  error
	}
	eng := p.Engine()
	var ahead *sim.Signal[assembled] // run i+1's assembler
	var behind *sim.Signal[error]    // run i−1's writer
	// Waiting for a stage reports the wait; a stage never started has
	// nothing to say.
	waited := func(since sim.Time) {
		if stalled != nil && p.Now() > since {
			stalled(since)
		}
	}
	awaitBand := func() assembled {
		since := p.Now()
		got := ahead.Wait(p)
		ahead = nil
		waited(since)
		return got
	}
	awaitWrite := func() (werr error) {
		if behind != nil {
			since := p.Now()
			werr, behind = behind.Wait(p), nil
			waited(since)
		}
		return werr
	}
	defer func() {
		if ahead != nil {
			if got := awaitBand(); got.err == nil {
				got.band.Release()
			}
		}
		if werr := awaitWrite(); err == nil {
			err = werr
		}
	}()

	for i, run := range runs {
		var got assembled
		if i == 0 {
			got.band, got.err = assemble(p, run)
		} else {
			got = awaitBand()
		}
		if got.err != nil {
			return got.err
		}
		last := i+1 == len(runs)
		if !last {
			sig, next := sim.NewSignal[assembled](eng, "as-assemble"), runs[i+1]
			ahead = sig
			p.Spawn("as-assemble", func(a *sim.Proc) {
				if lead != nil && i+2 < len(runs) {
					lead(a, runs[i+2])
				}
				band, aerr := assemble(a, next)
				sig.Fire(assembled{band, aerr})
			})
		}
		write := compute(run, got.band)
		if write == nil {
			continue
		}
		if werr := awaitWrite(); werr != nil {
			return werr
		}
		if last {
			return write(p)
		}
		sig := sim.NewSignal[error](eng, "as-write")
		behind = sig
		p.Spawn("as-write", func(w *sim.Proc) { sig.Fire(write(w)) })
	}
	return nil
}
