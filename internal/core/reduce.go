package core

import (
	"fmt"

	"github.com/hpcio/das/internal/active"
	"github.com/hpcio/das/internal/features"
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/pfs"
	"github.com/hpcio/das/internal/predict"
	"github.com/hpcio/das/internal/sim"
)

// ReduceRequest submits a data-reducing scan (stats, histogram) over a
// raster file.
type ReduceRequest struct {
	Op     string
	Input  string
	Scheme Scheme
}

// ReduceReport is the outcome of one reduction.
type ReduceReport struct {
	Scheme    Scheme
	Op        string
	Offloaded bool
	Decision  *predict.Decision
	Result    []float64
	ExecTime  sim.Time
	Stats     active.ReduceStats
	Traffic   map[metrics.TrafficClass]int64
}

// Reduce runs a reduction under the selected scheme. Reductions are the
// dependence-free workload classic active storage was built for: under
// NAS and DAS every server folds its local strips and only the partial
// aggregates cross the network; under TS the raster itself does. The DAS
// scheme still goes through the gate — which on a healthy cluster accepts
// trivially, since an empty dependence pattern has Σ aj = 0 and a
// near-zero output factor, and with servers down rejects a raster that
// has lost a strip's last live copy.
func (s *System) Reduce(req ReduceRequest) (ReduceReport, error) {
	m, err := s.FS.Raster(req.Input)
	if err != nil {
		return ReduceReport{}, err
	}
	red, ok := s.Reducers.Lookup(req.Op)
	if !ok {
		return ReduceReport{}, fmt.Errorf("core: unknown reducer %q", req.Op)
	}
	rep := ReduceReport{Scheme: req.Scheme, Op: req.Op}
	rep.Traffic, _, err = s.measure(func() error {
		switch req.Scheme {
		case TS:
			return s.reduceTS(&rep, red, m)
		case NAS:
			return s.reduceActive(&rep, red, m)
		case DAS:
			// The workflow still runs: pattern (empty), prediction, accept.
			pat := features.Pattern{Name: red.Name()}
			params := predictParams(m)
			params.OutputFactor = float64(red.PartialLen()*grid.ElemSize) / float64(m.Size)
			decision, err := s.decide(predict.Kernel(pat), params, m.Layout, req.Input)
			if err != nil {
				return err
			}
			rep.Decision = &decision
			if decision.Offload {
				return s.reduceActive(&rep, red, m)
			}
			return s.reduceTS(&rep, red, m)
		}
		return fmt.Errorf("core: unknown scheme %v", req.Scheme)
	})
	if err != nil {
		return ReduceReport{}, err
	}
	return rep, nil
}

// reduceActive offloads the fold to the storage servers.
func (s *System) reduceActive(rep *ReduceReport, red kernels.Reducer, in *pfs.FileMeta) error {
	var err error
	rep.Offloaded = true
	rep.ExecTime, err = s.run("reduce-"+red.Name(), func(p *sim.Proc) error {
		s.startup(p)
		result, stats, err := active.NewClient(s.FS, s.Clu.ComputeID(0)).ExecReduce(p, red, in.Name)
		rep.Result, rep.Stats = result, stats
		return err
	})
	return err
}

// reduceTS reads the raster to the compute nodes and folds there: each
// worker reduces a contiguous strip block, then ships its partial to the
// coordinating client, which merges.
func (s *System) reduceTS(rep *ReduceReport, red kernels.Reducer, in *pfs.FileMeta) error {
	blocks := s.tsBlocks(in)
	total := in.Size / in.ElemSize
	partialBytes := int64(red.PartialLen()) * grid.ElemSize

	var err error
	rep.ExecTime, err = s.run("reduce-ts-"+red.Name(), func(p *sim.Proc) error {
		gather := sim.NewMailbox[reducePartial](s.Clu.Eng, "reduce-gather")
		for _, b := range blocks {
			b := b
			p.Spawn("reduce-ts-worker", func(c *sim.Proc) {
				partial, elements, werr := s.reduceWorker(c, red, in, b, total)
				if werr != nil {
					gather.Put(reducePartial{err: werr})
					return
				}
				// Ship the partial to the coordinator (compute node 0);
				// workers on node 0 hand it over locally for free. The
				// gather mailbox carries the values.
				s.Clu.Net.Transfer(c, s.Clu.ComputeID(b.w), s.Clu.ComputeID(0), partialBytes, metrics.ClientToServer)
				gather.Put(reducePartial{vals: partial, elements: elements})
			})
		}
		var partials [][]float64
		for range blocks {
			got := gather.Get(p)
			if got.err != nil {
				return got.err
			}
			partials = append(partials, got.vals)
			rep.Stats.Elements += got.elements
			rep.Stats.Servers++
		}
		rep.Result = red.Merge(partials)
		return nil
	})
	return err
}

type reducePartial struct {
	vals     []float64
	elements int64
	err      error
}

func (s *System) reduceWorker(p *sim.Proc, red kernels.Reducer, in *pfs.FileMeta, b tsBlock, total int64) ([]float64, int64, error) {
	s.startup(p)
	client := s.FS.NewClient(s.Clu.ComputeID(b.w))
	byteLo, _ := in.StripBounds(b.first)
	_, byteHi := in.StripBounds(b.last)
	e0, e1 := byteLo/in.ElemSize, byteHi/in.ElemSize
	band := grid.NewBandLent(in.Width, total, e0, e1, e0, e1)
	err := client.ReadLent(p, in.Name, byteLo, byteHi-byteLo, func(at int64, window []byte) {
		band.Lend(at/in.ElemSize, window)
	})
	if err != nil {
		band.Release()
		return nil, 0, err
	}
	partial := red.ReduceBand(band)
	band.Release()
	p.Sleep(s.Clu.ComputeTime(e1-e0, red.Weight()))
	return partial, e1 - e0, nil
}
