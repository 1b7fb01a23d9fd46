package core

import (
	"fmt"

	"github.com/hpcio/das/internal/sim"
)

// ExecuteConcurrent runs several operations simultaneously on the shared
// platform — the multi-application situation an HEC I/O system actually
// faces. All jobs start at the same instant; each report's ExecTime is
// that job's own completion time, so the slowest report is the makespan.
//
// Because the operations share NICs, disks, and servers, per-operation
// traffic cannot be attributed: the Traffic and ServerLoad fields of the
// returned reports are nil/zero. DAS requests follow the normal workflow
// (pattern → prediction → accept/reject) but may not request
// reconfiguration here: migrating a file while other jobs run would
// serialize the batch and belongs in a separate planning step.
func (s *System) ExecuteConcurrent(reqs []Request) ([]Report, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("core: empty request batch")
	}
	reports := make([]Report, len(reqs))
	jobs := make([]func(p *sim.Proc) error, len(reqs))

	for i, req := range reqs {
		i, req := i, req
		in, ok := s.FS.Meta(req.Input)
		if !ok {
			return nil, fmt.Errorf("core: unknown input %q", req.Input)
		}
		if in.Width == 0 || in.ElemSize == 0 {
			return nil, fmt.Errorf("core: input %q lacks raster metadata", req.Input)
		}
		if _, ok := s.Registry.Lookup(req.Op); !ok {
			return nil, fmt.Errorf("core: unknown operator %q", req.Op)
		}
		if req.Reconfigure {
			return nil, fmt.Errorf("core: reconfiguration is not supported in concurrent batches")
		}
		reports[i] = Report{Scheme: req.Scheme, Op: req.Op}

		var job func(p *sim.Proc) error
		var err error
		switch req.Scheme {
		case TS:
			job, err = s.tsJob(&reports[i], req, in)
		case NAS:
			reports[i].Offloaded = true
			job, err = s.offloadJob(&reports[i], req, in, req.NASFetchMode)
		case DAS:
			pat, ok := s.Features.Lookup(req.Op)
			if !ok {
				return nil, fmt.Errorf("core: no kernel features for %q", req.Op)
			}
			mode, offload, derr := s.gateDAS(&reports[i], req, pat, in, in.Layout)
			if derr != nil {
				return nil, derr
			}
			if offload {
				reports[i].Offloaded = true
				job, err = s.offloadJob(&reports[i], req, in, mode)
			} else {
				job, err = s.tsJob(&reports[i], req, in)
			}
		default:
			return nil, fmt.Errorf("core: unknown scheme %v", req.Scheme)
		}
		if err != nil {
			return nil, err
		}
		jobs[i] = job
	}

	_, err := s.run("concurrent-batch", func(p *sim.Proc) error {
		start := p.Now()
		sigs := make([]*sim.Signal[error], len(jobs))
		for i, job := range jobs {
			i, job := i, job
			sigs[i] = sim.NewSignal[error](s.Clu.Eng, "batch-job")
			p.Spawn("batch-job", func(c *sim.Proc) {
				err := job(c)
				reports[i].ExecTime = c.Now() - start
				sigs[i].Fire(err)
			})
		}
		for i, e := range sim.WaitAll(p, sigs) {
			if e != nil {
				return fmt.Errorf("job %d (%s): %w", i, reqs[i].Op, e)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return reports, nil
}

// Makespan returns the completion time of the slowest report in a batch.
func Makespan(reports []Report) sim.Time {
	var m sim.Time
	for _, r := range reports {
		if r.ExecTime > m {
			m = r.ExecTime
		}
	}
	return m
}
