package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/hpcio/das/internal/bufpool"
	"github.com/hpcio/das/internal/cluster"
	"github.com/hpcio/das/internal/experiments"
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/pfs"
	"github.com/hpcio/das/internal/pipeline"
	"github.com/hpcio/das/internal/predict"
	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/simnet"
	"github.com/hpcio/das/internal/workload"
)

// Probes time each layer's public functions in isolation, on inputs of
// the workloads' shape: where the CPU attribution says which layer the
// time went to, a probe says what one of that layer's operations costs.

// probeRounds is how many times each probe is measured; the median is
// reported.
const probeRounds = 3

// perOp runs batch (which performs n operations per call) until at least
// budget has passed, probeRounds times, and returns the median
// nanoseconds per operation.
func perOp(budget time.Duration, n int, batch func() error) (float64, error) {
	round := budget / probeRounds
	var ns []float64
	for r := 0; r < probeRounds; r++ {
		var ops int
		start := time.Now()
		for ops == 0 || time.Since(start) < round {
			if err := batch(); err != nil {
				return 0, err
			}
			ops += n
		}
		ns = append(ns, float64(time.Since(start).Nanoseconds())/float64(ops))
	}
	return median(ns), nil
}

// probe measures one or more metrics within budget and stores them.
type probe struct {
	name string
	run  func(sz sizes, budget time.Duration, vals map[string]float64) error
}

var probes = []probe{
	{"sim.task", probeSimTask},
	{"sim.proc", probeSimProc},
	{"sim.timer", probeSimTimer},
	{"simnet.rpc", probeRPC},
	{"simdisk.io", probeDisk},
	{"pfs.read", probePFSRead},
	{"pfs.write", probePFSWrite},
	{"kernels.flow-routing", kernelProbe("flow-routing")},
	{"kernels.flow-accumulation", kernelProbe("flow-accumulation")},
	{"kernels.gaussian-filter", kernelProbe("gaussian-filter")},
	{"kernels.median-filter", kernelProbe("median-filter")},
	{"kernels.parallel", probeParallel},
	{"grid.decode", probeDecode},
	{"grid.encode", probeEncode},
	{"bufpool.getput", probeBufpool},
	{"layout.locate", probeLocate},
	{"predict.decide", probeDecide},
	{"pipeline.compile", probeCompile},
	{"workload.terrain", probeTerrain},
	{"metrics.sketch", probeSketch},
}

// runProbes gives every probe the same share of the probing budget.
func runProbes(sz sizes, each time.Duration, vals map[string]float64) error {
	for _, p := range probes {
		if err := p.run(sz, each, vals); err != nil {
			return fmt.Errorf("probe %s: %w", p.name, err)
		}
	}
	return nil
}

// engineBatch is how many events one engine probe batch dispatches.
const engineBatch = 4096

// chainTask reschedules itself until its budget of events is spent.
type chainTask struct {
	eng  *sim.Engine
	left int
}

func (t *chainTask) RunTask() {
	if t.left--; t.left > 0 {
		t.eng.ScheduleTask(sim.Microsecond, t)
	}
}

func probeSimTask(_ sizes, budget time.Duration, vals map[string]float64) (err error) {
	eng := sim.NewEngine()
	defer eng.Shutdown()
	vals["sim.probe_task_ns"], err = perOp(budget, engineBatch, func() error {
		eng.ScheduleTask(0, &chainTask{eng: eng, left: engineBatch})
		return eng.Run()
	})
	return err
}

func probeSimProc(_ sizes, budget time.Duration, vals map[string]float64) (err error) {
	eng := sim.NewEngine()
	defer eng.Shutdown()
	vals["sim.probe_proc_ns"], err = perOp(budget, engineBatch, func() error {
		eng.Spawn("probe", func(p *sim.Proc) {
			for i := 1; i < engineBatch; i++ {
				p.Sleep(sim.Microsecond)
			}
		})
		return eng.Run()
	})
	return err
}

func probeSimTimer(_ sizes, budget time.Duration, vals map[string]float64) (err error) {
	eng := sim.NewEngine()
	defer eng.Shutdown()
	vals["sim.probe_timer_ns"], err = perOp(budget, engineBatch, func() error {
		left := engineBatch
		var tick func()
		tick = func() {
			if left--; left > 0 {
				eng.AfterFunc(sim.Microsecond, tick)
			}
		}
		eng.AfterFunc(0, tick)
		return eng.Run()
	})
	return err
}

// probeCluster is a small platform for the RPC-level probes.
func probeCluster() (*cluster.Cluster, error) {
	cfg := cluster.Default()
	cfg.ComputeNodes, cfg.StorageNodes = 2, 2
	return cluster.New(cfg)
}

// rpcBatch is how many round trips one RPC-level probe batch makes.
const rpcBatch = 512

func probeRPC(_ sizes, budget time.Duration, vals map[string]float64) error {
	clu, err := probeCluster()
	if err != nil {
		return err
	}
	defer clu.Eng.Shutdown()
	const port = "probe"
	client, server := clu.ComputeID(0), clu.StorageID(0)
	inbox := clu.Net.Node(server).Port(port)
	clu.Eng.SpawnDaemon("probe-echo", func(p *sim.Proc) {
		for {
			req := inbox.Get(p)
			clu.Net.Respond(p, req, nil, 64, metrics.ServerToClient)
		}
	})
	vals["simnet.probe_rpc_ns"], err = perOp(budget, rpcBatch, func() error {
		clu.Eng.Spawn("probe-caller", func(p *sim.Proc) {
			for i := 0; i < rpcBatch; i++ {
				clu.Net.Call(p, simnet.Message{From: client, To: server, Port: port, Size: 64, Class: metrics.ClientToServer})
			}
		})
		return clu.Eng.Run()
	})
	return err
}

func probeDisk(sz sizes, budget time.Duration, vals map[string]float64) error {
	clu, err := probeCluster()
	if err != nil {
		return err
	}
	defer clu.Eng.Shutdown()
	disk := clu.Disk(clu.StorageID(0))
	vals["simdisk.probe_io_ns"], err = perOp(budget, rpcBatch, func() error {
		clu.Eng.Spawn("probe-io", func(p *sim.Proc) {
			for i := 0; i < rpcBatch; i++ {
				disk.Read(p, sz.strip)
			}
		})
		return clu.Eng.Run()
	})
	return err
}

// probeFS deploys a file system holding one round-robin file of
// rpcBatch strips.
func probeFS(sz sizes) (*pfs.FileSystem, error) {
	clu, err := probeCluster()
	if err != nil {
		return nil, err
	}
	fs := pfs.New(clu)
	lay := layout.NewRoundRobin(fs.Servers())
	if _, err := fs.Create("probe", rpcBatch*sz.strip, lay, pfs.CreateOptions{StripSize: sz.strip}); err != nil {
		clu.Eng.Shutdown()
		return nil, err
	}
	buf := make([]byte, sz.strip)
	for s := int64(0); s < rpcBatch; s++ {
		fs.Server(lay.Primary(s)).Preload("probe", s, buf)
	}
	return fs, nil
}

func probePFSRead(sz sizes, budget time.Duration, vals map[string]float64) error {
	fs, err := probeFS(sz)
	if err != nil {
		return err
	}
	clu := fs.Cluster()
	defer clu.Eng.Shutdown()
	lay := layout.NewRoundRobin(fs.Servers())
	var mallocs, reads uint64
	vals["pfs.probe_read_ns"], err = perOp(budget, rpcBatch, func() error {
		var inner error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		clu.Eng.Spawn("probe-read", func(p *sim.Proc) {
			for s := int64(0); s < rpcBatch && inner == nil; s++ {
				var data []byte
				data, inner = fs.ReadStripFrom(p, clu.ComputeID(0), lay.Primary(s), "probe", s, 0, 0)
				pfs.ReleaseBuffer(data)
			}
		})
		if err := clu.Eng.Run(); err != nil {
			return err
		}
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		reads += rpcBatch
		return inner
	})
	if reads > 0 {
		vals["pfs.probe_read_allocs"] = float64(mallocs) / float64(reads)
	}
	return err
}

func probePFSWrite(sz sizes, budget time.Duration, vals map[string]float64) error {
	fs, err := probeFS(sz)
	if err != nil {
		return err
	}
	clu := fs.Cluster()
	defer clu.Eng.Shutdown()
	lay := layout.NewRoundRobin(fs.Servers())
	buf := make([]byte, sz.strip)
	vals["pfs.probe_write_ns"], err = perOp(budget, rpcBatch, func() error {
		var inner error
		clu.Eng.Spawn("probe-write", func(p *sim.Proc) {
			for s := int64(0); s < rpcBatch && inner == nil; s++ {
				inner = fs.WriteStripTo(p, clu.ComputeID(0), lay.Primary(s), "probe", s, buf, true)
			}
		})
		if err := clu.Eng.Run(); err != nil {
			return err
		}
		return inner
	})
	return err
}

// probeRows is the height of the raster the kernel probes run over: a
// server's share of a workload raster, a few dozen strips.
const probeRows = 32

// probeBand is a band covering a whole probeRows × width terrain.
func probeBand(sz sizes) *grid.Band {
	g := workload.Terrain(sz.width, probeRows, 1)
	return grid.BandOf(g, 0, g.Len(), 0, g.Len())
}

func kernelProbe(name string) func(sizes, time.Duration, map[string]float64) error {
	return func(sz sizes, budget time.Duration, vals map[string]float64) (err error) {
		k, ok := kernels.Default().Lookup(name)
		if !ok {
			return fmt.Errorf("unknown kernel %q", name)
		}
		b := probeBand(sz)
		out := make([]float64, b.OwnedLen())
		vals["kernels."+name+".ns_per_elem"], err = perOp(budget, len(out), func() error {
			k.ApplyBand(b, out)
			return nil
		})
		return err
	}
}

// probeParallel times the parallel executor at one shard and at one
// shard per core; the ratio is the speed-up a multi-core host gives the
// offloaded kernels.
func probeParallel(sz sizes, budget time.Duration, vals map[string]float64) error {
	k, _ := kernels.Default().Lookup("gaussian-filter")
	b := probeBand(sz)
	out := make([]float64, b.OwnedLen())
	defer kernels.SetParallelism(0)
	// The workloads are measured on one P; this probe alone gets every core.
	procs := runtime.NumCPU()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	var ns [2]float64
	for i, shards := range []int{1, procs} {
		kernels.SetParallelism(shards)
		var err error
		ns[i], err = perOp(budget/2, len(out), func() error {
			kernels.ParallelApplyBand(k, b, out)
			return nil
		})
		if err != nil {
			return err
		}
	}
	vals["kernels.parallel_speedup"] = ns[0] / ns[1]
	return nil
}

// mbPerSec converts nanoseconds per byte to MB/s.
func mbPerSec(nsPerByte float64) float64 { return 1e3 / nsPerByte }

func probeDecode(sz sizes, budget time.Duration, vals map[string]float64) error {
	raw := make([]byte, sz.strip)
	dst := make([]float64, sz.strip/grid.ElemSize)
	ns, err := perOp(budget, len(raw), func() error {
		_, err := grid.FloatsFromBytesInto(dst, raw)
		return err
	})
	vals["grid.decode_mb_s"] = mbPerSec(ns)
	return err
}

func probeEncode(sz sizes, budget time.Duration, vals map[string]float64) error {
	src := make([]float64, sz.strip/grid.ElemSize)
	dst := make([]byte, sz.strip)
	ns, err := perOp(budget, len(dst), func() error {
		grid.FloatsToBytesInto(dst, src)
		return nil
	})
	vals["grid.encode_mb_s"] = mbPerSec(ns)
	return err
}

func probeBufpool(sz sizes, budget time.Duration, vals map[string]float64) (err error) {
	var pool bufpool.Pool[byte]
	vals["bufpool.getput_ns"], err = perOp(budget, 1024, func() error {
		for i := 0; i < 1024; i++ {
			pool.Put(pool.Get(int(sz.strip)))
		}
		return nil
	})
	return err
}

// probeGeometry is the file geometry of one raster workload input.
func probeGeometry(sz sizes) predict.Params {
	return predict.Params{
		ElemSize: grid.ElemSize, StripSize: sz.strip,
		FileSize: int64(sz.offloadRows) * int64(sz.width) * grid.ElemSize,
		Width:    sz.width, OutputFactor: 1,
	}
}

func probeLocate(sz sizes, budget time.Duration, vals map[string]float64) (err error) {
	p := probeGeometry(sz)
	lc := layout.NewLocator(p.ElemSize, p.StripSize, layout.NewGroupedReplicated(sz.nodes/2, 4, 1))
	total := p.TotalElems()
	var sink bool
	vals["layout.locate_ns"], err = perOp(budget, 4096, func() error {
		for i := int64(0); i < 4096; i++ {
			sink = lc.LocalDep(i*(total/4096), int64(sz.width)+1, total) != sink
		}
		return nil
	})
	return err
}

func probeDecide(sz sizes, budget time.Duration, vals map[string]float64) error {
	pat := kernels.Pattern(kernels.Gaussian{})
	p := probeGeometry(sz)
	lay := layout.NewRoundRobin(sz.nodes / 2)
	ns, err := perOp(budget, 1, func() error {
		_, err := predict.Decide(pat, p, lay)
		return err
	})
	vals["predict.decide_us"] = ns / 1e3
	return err
}

func probeCompile(sz sizes, budget time.Duration, vals map[string]float64) error {
	dag := experiments.PipelineDAG()
	reg, combs, reds := kernels.Default(), kernels.DefaultCombiners(), kernels.DefaultReducers()
	ns, err := perOp(budget, 1, func() error {
		_, err := pipeline.Compile(dag, reg, combs, reds, sz.width, 0)
		return err
	})
	vals["pipeline.compile_us"] = ns / 1e3
	return err
}

func probeTerrain(sz sizes, budget time.Duration, vals map[string]float64) error {
	bytes := probeRows * sz.width * grid.ElemSize
	ns, err := perOp(budget, bytes, func() error {
		workload.Terrain(sz.width, probeRows, 1)
		return nil
	})
	vals["workload.terrain_mb_s"] = mbPerSec(ns)
	return err
}

func probeSketch(_ sizes, budget time.Duration, vals map[string]float64) (err error) {
	sk := metrics.NewLatencySketch()
	vals["metrics.sketch_record_ns"], err = perOp(budget, 4096, func() error {
		for i := 0; i < 4096; i++ {
			sk.Observe(sim.Time(i) * sim.Microsecond)
		}
		return nil
	})
	return err
}
