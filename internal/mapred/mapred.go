// Package mapred is a MapReduce-style comparator for the §II-C claim:
// the paper argues that MapReduce-family runtimes, though they also move
// computation to data, "are not designed for high performance computing
// semantics" and that DAS "is more effective than MapReduce in HPC
// environments". This package makes that claim testable by running the
// same stencil kernels the way a Hadoop-era stack would:
//
//  1. Map: every node scans its node-local strips (data-local scheduling)
//     and *materializes* its map output — the strip's own data plus copies
//     of the boundary fragments its neighboring strips will need — to
//     local disk, as MapReduce materializes intermediate key/value data.
//  2. Shuffle: after a global barrier (reduces must not start before every
//     map has finished), each reducer pulls the fragments destined for its
//     strips; fragments for co-located strips stay local, the rest cross
//     the network.
//  3. Reduce: each node re-reads its materialized inputs, runs the kernel
//     over its strips, and writes the output through the DFS with
//     HDFS-style replication (default 2 copies), paying one network copy
//     per output strip.
//
// The structural handicaps relative to DAS are exactly the ones the HPC
// literature attributes to MapReduce on these workloads: intermediate
// materialization (extra disk passes), a global barrier (straggler
// sensitivity), and replicated output (extra network), against DAS's
// read-local/compute/write-local pipeline.
package mapred

import (
	"fmt"

	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/pfs"
	"github.com/hpcio/das/internal/predict"
	"github.com/hpcio/das/internal/sim"
)

// Job describes one MapReduce execution of a stencil kernel.
type Job struct {
	Op     string
	Input  string // existing raster, expected on a round-robin layout
	Output string // created by Run with ReplicatedRoundRobin placement
	// Replication is the DFS output replication factor (0 → 2, the
	// common HDFS minimum for intermediate datasets).
	Replication int
}

// Stats reports one job's execution.
type Stats struct {
	MapTime, ShuffleTime, ReduceTime sim.Time // barrier-to-barrier phase spans
	ShuffledBytes                    int64    // halo fragments that crossed the network
	MaterializedBytes                int64    // intermediate data written to local disks
	OutputReplicaBytes               int64    // DFS replication traffic
}

// Runner executes MapReduce jobs over an existing cluster + PFS. It is
// deployed on the storage node set; under the collocated deployment model
// (the one MapReduce assumes) those are all the nodes.
type Runner struct {
	fs       *pfs.FileSystem
	registry *kernels.Registry
}

// NewRunner builds a runner over a deployed file system.
func NewRunner(fs *pfs.FileSystem, registry *kernels.Registry) *Runner {
	return &Runner{fs: fs, registry: registry}
}

// fragment is one shuffled piece: elements [lo, hi) of the input needed by
// the reducer of strip Target.
type fragment struct {
	Target int64
	Lo, Hi int64  // element range
	Data   []byte // a window of the mapper's stored strip: lent, read-only
}

// mapOut is one mapper's materialized output.
type mapOut struct {
	fragments []fragment
	err       error
}

// Run executes the job to completion inside the calling process and
// returns its statistics. The caller drives the engine.
func (r *Runner) Run(p *sim.Proc, job Job) (Stats, error) {
	in, err := r.fs.Raster(job.Input)
	if err != nil {
		return Stats{}, err
	}
	k, ok := r.registry.Lookup(job.Op)
	if !ok {
		return Stats{}, fmt.Errorf("mapred: unknown operator %q", job.Op)
	}
	replication := job.Replication
	if replication == 0 {
		replication = 2
	}
	servers := r.fs.Servers()
	outLay := layout.NewReplicatedRoundRobin(servers, replication)
	out, err := r.fs.Create(job.Output, in.Size, outLay, pfs.CreateOptions{
		StripSize: in.StripSize, Width: in.Width, Height: in.Height, ElemSize: in.ElemSize,
	})
	if err != nil {
		return Stats{}, err
	}

	clu := r.fs.Cluster()
	offs := kernels.Pattern(k).Resolve(in.Width)
	lc := in.Locator()
	total := in.Size / in.ElemSize

	var stats Stats
	start := p.Now()

	// ---- Map phase: scan local strips, materialize own data + outgoing
	// halo fragments to local disk. perServer[s] collects what mapper s
	// produced; reducers pull from it during the shuffle.
	perServer := make([]mapOut, servers)
	mapSigs := make([]*sim.Signal[int], servers)
	for s := 0; s < servers; s++ {
		s := s
		mapSigs[s] = sim.NewSignal[int](clu.Eng, fmt.Sprintf("map-%d", s))
		p.Spawn(fmt.Sprintf("mapred-map-%d", s), func(mp *sim.Proc) {
			perServer[s].fragments, perServer[s].err = r.mapTask(mp, s, in, lc, offs, total, &stats)
			mapSigs[s].Fire(s)
		})
	}
	sim.WaitAll(p, mapSigs)
	for s := range perServer {
		if perServer[s].err != nil {
			return Stats{}, perServer[s].err
		}
	}
	stats.MapTime = p.Now() - start

	// ---- Shuffle + reduce: reducers (one per server, handling the
	// server's strips) pull their fragments and compute. The barrier
	// above is the MapReduce semantic: no reduce before every map ends.
	shuffleStart := p.Now()
	redSigs := make([]*sim.Signal[error], servers)
	for s := 0; s < servers; s++ {
		s := s
		redSigs[s] = sim.NewSignal[error](clu.Eng, fmt.Sprintf("reduce-%d", s))
		p.Spawn(fmt.Sprintf("mapred-reduce-%d", s), func(rp *sim.Proc) {
			redSigs[s].Fire(r.reduceTask(rp, s, in, out, k, lc, offs, total, perServer, &stats))
		})
	}
	for _, err := range sim.WaitAll(p, redSigs) {
		if err != nil {
			return Stats{}, err
		}
	}
	stats.ReduceTime = p.Now() - shuffleStart
	stats.ShuffleTime = 0 // folded into ReduceTime; kept for reporting symmetry
	return stats, nil
}

// mapTask scans server s's local strips and materializes map output.
func (r *Runner) mapTask(p *sim.Proc, s int, in *pfs.FileMeta, lc layout.Locator, offs []int64, total int64, stats *Stats) ([]fragment, error) {
	srv := r.fs.Server(s)
	var frags []fragment
	var materialized int64
	strips := in.Strips()
	var spans []pfs.Span
	var stripIdx []int64
	for t := int64(0); t < strips; t++ {
		if in.Layout.Primary(t) == s {
			spans = append(spans, pfs.Span{Strip: t})
			stripIdx = append(stripIdx, t)
		}
	}
	if len(spans) == 0 {
		return nil, nil
	}
	chunks, err := srv.LocalViewMany(p, in.Name, spans) // lent: the fragments are windows of it, never released
	if err != nil {
		return nil, err
	}
	for i, t := range stripIdx {
		raw := chunks[i]
		lo, hi := in.StripBounds(t)
		e0, e1 := lo/in.ElemSize, hi/in.ElemSize
		// The strip's own data goes to its own reducer (local: reducers
		// are placed data-locally), and every neighbor strip that needs a
		// piece of [e0, e1) gets a fragment.
		frags = append(frags, fragment{Target: t, Lo: e0, Hi: e1, Data: raw})
		materialized += (e1 - e0) * in.ElemSize
		for _, u := range neighborsNeeding(lc, offs, t, e0, e1, total) {
			// Which part of our strip does reducer u need? The image of
			// u's dependence window intersected with our range.
			ulo, uhi := in.StripBounds(u)
			ue0, ue1 := ulo/in.ElemSize, uhi/in.ElemSize
			wlo, whi := grid.HaloRange(ue0, ue1, maxAbs(offs), total)
			if wlo < e0 {
				wlo = e0
			}
			if whi > e1 {
				whi = e1
			}
			if whi <= wlo {
				continue
			}
			frags = append(frags, fragment{Target: u, Lo: wlo, Hi: whi, Data: raw[(wlo-e0)*in.ElemSize : (whi-e0)*in.ElemSize]})
			materialized += (whi - wlo) * in.ElemSize
		}
	}
	// Materialize the map output to local disk, MapReduce-style.
	clu := r.fs.Cluster()
	clu.Disk(srv.NodeID()).Write(p, materialized)
	stats.MaterializedBytes += materialized
	return frags, nil
}

// reduceTask pulls server s's fragments, computes its strips, and writes
// replicated output.
func (r *Runner) reduceTask(p *sim.Proc, s int, in, out *pfs.FileMeta, k kernels.Kernel, lc layout.Locator, offs []int64, total int64, mapOuts []mapOut, stats *Stats) error {
	srv := r.fs.Server(s)
	clu := r.fs.Cluster()
	strips := in.Strips()
	reach := maxAbs(offs)

	mine := make(map[int64]bool)
	for t := int64(0); t < strips; t++ {
		if in.Layout.Primary(t) == s {
			mine[t] = true
		}
	}
	if len(mine) == 0 {
		return nil
	}

	// Shuffle: pull this reducer's fragments from every mapper's
	// materialized output, one parallel segment copy per producer —
	// Hadoop's parallel fetchers. Each pull reads the producer's disk and
	// crosses the network unless producer and reducer share the node.
	var gathered []fragment
	pullSigs := make([]*sim.Signal[[]fragment], 0, len(mapOuts))
	for producer := range mapOuts {
		producer := producer
		var frags []fragment
		var bytes int64
		for _, f := range mapOuts[producer].fragments {
			if mine[f.Target] {
				frags = append(frags, f)
				bytes += (f.Hi - f.Lo) * in.ElemSize
			}
		}
		if len(frags) == 0 {
			continue
		}
		sig := sim.NewSignal[[]fragment](clu.Eng, fmt.Sprintf("shuffle-%d-%d", producer, s))
		pullSigs = append(pullSigs, sig)
		pullFrags, pullBytes := frags, bytes
		p.Spawn(fmt.Sprintf("mapred-shuffle-%d-%d", producer, s), func(sp *sim.Proc) {
			prodSrv := r.fs.Server(producer)
			clu.Disk(prodSrv.NodeID()).Read(sp, pullBytes)
			if producer != s {
				clu.Net.Transfer(sp, prodSrv.NodeID(), srv.NodeID(), pullBytes, clu.ClassBetween(prodSrv.NodeID(), srv.NodeID()))
				stats.ShuffledBytes += pullBytes
			}
			sig.Fire(pullFrags)
		})
	}
	for _, frags := range sim.WaitAll(p, pullSigs) {
		gathered = append(gathered, frags...)
	}

	// Reduce: assemble each strip's band from the gathered fragments and
	// run the kernel.
	var outStrips []int64
	var outChunks [][]byte
	for t := int64(0); t < strips; t++ {
		if !mine[t] {
			continue
		}
		lo, hi := in.StripBounds(t)
		e0, e1 := lo/in.ElemSize, hi/in.ElemSize
		wlo, whi := grid.HaloRange(e0, e1, reach, total)
		band := grid.NewBandLent(in.Width, total, e0, e1, wlo, whi)
		for _, f := range gathered {
			if f.Target == t {
				band.Lend(f.Lo, f.Data)
			}
		}
		outVals := make([]float64, e1-e0)
		k.ApplyBand(band, outVals)
		band.Release()
		p.Sleep(clu.ComputeTime(e1-e0, k.Weight()))
		outStrips = append(outStrips, t)
		outChunks = append(outChunks, grid.Bytes(outVals)) // the output itself becomes the stored strip
	}
	if len(outStrips) == 0 {
		return nil
	}
	// DFS write: local copy plus forwarded replicas (the HDFS pipeline).
	if err := srv.StoreForwarded(p, out.Name, outStrips, outChunks); err != nil {
		return err
	}
	for i, t := range outStrips {
		stats.OutputReplicaBytes += int64(out.Layout.Holders(t).Len()-1) * int64(len(outChunks[i]))
	}
	return nil
}

// neighborsNeeding lists the strips other than t whose dependence window
// reaches into t's element range — the reducers this mapper must feed.
func neighborsNeeding(lc layout.Locator, offs []int64, t, e0, e1, total int64) []int64 {
	seen := make(map[int64]struct{})
	var need []int64
	// A strip u needs us if t is in NeededStrips(u). Equivalently, u is in
	// the image of t under negated offsets; enumerate via NeededStrips
	// with inverted offsets.
	inv := make([]int64, len(offs))
	for i, off := range offs {
		inv[i] = -off
	}
	for _, u := range predict.NeededStrips(nil, lc, inv, e0, e1, total) {
		if u == t {
			continue
		}
		if _, dup := seen[u]; dup {
			continue
		}
		seen[u] = struct{}{}
		need = append(need, u)
	}
	return need
}

func maxAbs(offs []int64) int64 {
	var m int64
	for _, off := range offs {
		if off < 0 {
			off = -off
		}
		if off > m {
			m = off
		}
	}
	return m
}
