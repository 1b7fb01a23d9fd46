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
		in, err := s.kernelInput(req)
		if err != nil {
			return nil, err
		}
		if req.Reconfigure {
			return nil, fmt.Errorf("core: reconfiguration is not supported in concurrent batches")
		}
		reports[i] = Report{Scheme: req.Scheme, Op: req.Op}
		if jobs[i], err = s.job(&reports[i], req, in, nil); err != nil {
			return nil, err
		}
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
