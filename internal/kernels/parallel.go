// Parallel kernel execution engine: shards ApplyBand calls into
// contiguous row-range sub-bands executed across a package-level worker
// pool. The row partitioner is a pure function of the owned range, the
// raster width, and the shard count, and a kernel's value for an element
// depends only on that element's dependence window, never on where the
// owned range around it starts or ends, so results are byte-identical to
// Apply/ApplyBand regardless of how many workers run or how the scheduler
// interleaves them.
//
// Parallelism here is real-CPU only: it changes how fast the host
// regenerates an experiment, never the DES cost model. Simulated compute
// time remains p.Sleep(ComputeTime(...)) at the call sites, so the
// simulated clock — and with it every figure — is untouched.
package kernels

import (
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/hpcio/das/internal/grid"
)

// minParallelElements is the owned-range size below which sharding is not
// worth the synchronization cost and ParallelApplyBand runs sequentially
// (auto mode only; an explicit SetParallelism(n>1) always shards).
const minParallelElements = 4096

// parallelism holds the configured shard count: 0 = auto (GOMAXPROCS,
// with the small-band threshold), 1 = always sequential, n>1 = exactly n
// shards.
var parallelism atomic.Int32

// SetParallelism configures the parallel executor: 0 restores the default
// (one shard per GOMAXPROCS core, small bands run sequentially), 1
// disables sharding, and n>1 forces exactly n shards even on tiny bands
// (used by tests to exercise the partitioner on degenerate shapes).
// Outputs are byte-identical at every setting.
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	parallelism.Store(int32(n))
}

// Parallelism reports the effective shard count for a band of owned
// elements.
func Parallelism(owned int64) int {
	if n := parallelism.Load(); n > 0 {
		return int(n)
	}
	if owned < minParallelElements {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// The worker pool: a fixed set of goroutines (one per core at first use)
// draining a job channel. Submitters that find the channel full run the
// job inline, so the pool can never deadlock and nested ParallelApplyBand
// calls degrade gracefully to inline execution.
var (
	poolOnce sync.Once
	poolJobs chan func()
)

func ensurePool() {
	poolOnce.Do(func() {
		n := runtime.GOMAXPROCS(0)
		poolJobs = make(chan func(), 4*n)
		for i := 0; i < n; i++ {
			go func() {
				for job := range poolJobs {
					job()
				}
			}()
		}
	})
}

// RowShard is one contiguous owned sub-range produced by ShardRows.
type RowShard struct {
	Start, End int64 // owned element sub-range [Start, End)
}

// ShardRows deterministically partitions the owned range [start, end) of a
// width-wide raster into at most n contiguous, row-aligned shards: rows
// are divided as evenly as possible (the first rows%n shards get one extra
// row), and a ragged first or last row — an owned range that starts or
// ends mid-row — stays attached to its neighboring shard. Empty shards are
// elided, so degenerate shapes (single row, fewer rows than n) yield fewer
// shards. The partition depends only on (start, end, width, n).
func ShardRows(start, end int64, width, n int) []RowShard {
	if end <= start || n <= 1 {
		return []RowShard{{Start: start, End: end}}
	}
	w := int64(width)
	r0 := start / w     // first (possibly partial) row
	r1 := (end - 1) / w // last (possibly partial) row
	rows := r1 - r0 + 1 // rows spanned by the owned range
	if int64(n) > rows {
		n = int(rows)
	}
	shards := make([]RowShard, 0, n)
	base, extra := rows/int64(n), rows%int64(n)
	row := r0
	for i := 0; i < n; i++ {
		take := base
		if int64(i) < extra {
			take++
		}
		lo, hi := row*w, (row+take)*w
		if lo < start {
			lo = start
		}
		if hi > end {
			hi = end
		}
		if hi > lo {
			shards = append(shards, RowShard{Start: lo, End: hi})
		}
		row += take
	}
	return shards
}

// ParallelApplyBand computes the band's owned range into out (length
// b.OwnedLen()) by sharding it row-wise across the worker pool. The result
// is byte-identical to k.ApplyBand(b, out): shards share the band's
// read-only windows, each through a narrowed band with a cursor of its
// own, and write disjoint sub-slices of out.
func ParallelApplyBand(k Kernel, b *grid.Band, out []float64) {
	shards := ShardRows(b.Start, b.End, b.Width, Parallelism(b.OwnedLen()))
	if len(shards) <= 1 {
		k.ApplyBand(b, out)
		return
	}
	ensurePool()
	var wg sync.WaitGroup
	run := func(s RowShard) {
		sub := b.Narrow(s.Start, s.End)
		k.ApplyBand(sub, out[s.Start-b.Start:s.End-b.Start])
		sub.Release()
	}
	for _, s := range shards[1:] {
		s := s
		wg.Add(1)
		job := func() {
			defer wg.Done()
			run(s)
		}
		select {
		case poolJobs <- job:
		default:
			job() // pool saturated: make progress inline
		}
	}
	run(shards[0]) // the caller contributes a core too
	wg.Wait()
}

// ParallelApply runs a kernel over a whole grid through the parallel
// executor. It is the drop-in accelerated form of Apply and must produce a
// byte-identical grid (asserted by property tests across every registered
// kernel).
func ParallelApply(k Kernel, g *grid.Grid) *grid.Grid {
	b := grid.BandOf(g, 0, g.Len(), 0, g.Len())
	out := grid.New(g.W, g.H)
	ParallelApplyBand(k, b, out.Data)
	return out
}
