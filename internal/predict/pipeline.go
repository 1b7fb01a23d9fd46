package predict

import (
	"fmt"
	"slices"

	"github.com/hpcio/das/internal/cluster"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/sim"
)

// PipelineStage describes one DAG node, in topological order, for
// whole-pipeline pricing: its own dependence reach against its parents'
// output (not the composed reach against the DAG input) and whether it is
// the terminal reduce.
type PipelineStage struct {
	Name string
	// Back and Fwd are the stage's own dependence reach in elements
	// against its parent rasters.
	Back, Fwd int64
	// Reduce marks the terminal aggregation (no raster output).
	Reduce bool
}

// PipelineEval is one node a dispatch round evaluates for each run: at
// its kernel weight, over the run widened by Need elements a side
// (clamped to the file) — a fused prefix evaluates its earlier stages
// over the halo its later ones read, and that redundant compute is billed.
type PipelineEval struct {
	Weight float64
	Need   int64
}

// PipelineRound is one dispatch round of a schedule, as every server runs
// it over each of its runs.
type PipelineRound struct {
	// Input is how far past a run the round reads the DAG input, the
	// strips its server does not hold fetched from their primaries; -1
	// when the round reads its parents' retained values instead.
	Input int64
	// Pulls holds, per parent read from retained values, how far past a
	// run it is read: the strips of that range another server computed
	// are pulled from it as bands, one message per server.
	Pulls []int64
	// Evals are what the round computes over each run.
	Evals []PipelineEval
}

// PipelineSpec is a compiled operator DAG as the predictor prices it: its
// stages, and the schedule each fusion depth of its leading chain would
// run. The predictor picks the depth; the planner only lists them.
type PipelineSpec struct {
	// Stages in topological order.
	Stages []PipelineStage
	// Depths holds one schedule per fusion depth: Depths[k-1] fuses the
	// leading chain's first k stages into round 0, which reads the input
	// file with a deep halo instead of exchanging intermediate bands. The
	// last round of every schedule stores the grid output.
	Depths [][]PipelineRound
	// DAGBack and DAGFwd are the composed reach of the whole DAG against
	// the input — the per-direction maxima over root-to-sink paths that
	// the I/O lower bound is built from.
	DAGBack, DAGFwd int64
	// Platform supplies every rate a schedule's seconds are priced at.
	Platform cluster.Config
}

// DepthPrice is one fusion depth's predicted run: its simulated seconds
// and the halo bytes it moves — input fetched by from-input rounds,
// bands pulled by the others.
type DepthPrice struct {
	Seconds                   sim.Time
	FetchBytes, ExchangeBytes int64
}

// FusedStages counts the stages a run at the given fusion depth avoids
// dispatching separately: the fused prefix beyond its first stage plus
// every later zero-reach stage (reduces, element-wise combines), which
// never pulls.
func (spec PipelineSpec) FusedStages(depth int) int {
	fused := depth - 1
	for _, st := range spec.Stages[depth:] {
		if st.Back == 0 && st.Fwd == 0 {
			fused++
		}
	}
	return fused
}

// reached calls visit with every strip outside run that the range
// [run.lo−back, run.hi+fwd), clamped to the file, reaches and the
// elements of it reached — what the run's server must have brought in to
// read that far.
func (run stripRun) reached(lc layout.Locator, total, back, fwd int64, visit func(strip, elems int64)) {
	eps := lc.ElemsPerStrip()
	for _, side := range [2][2]int64{{max(run.lo-back, 0), run.lo}, {run.hi, min(run.hi+fwd, total)}} {
		for lo, hi := side[0], side[1]; lo < hi; {
			t := lo / eps
			end := min((t+1)*eps, hi)
			visit(t, end-lo)
			lo = end
		}
	}
}

// remoteBytes is what reached finds on strips local does not cover.
func (run stripRun) remoteBytes(lc layout.Locator, total, back, fwd int64, local func(strip int64) bool) int64 {
	var elems int64
	run.reached(lc, total, back, fwd, func(t, n int64) {
		if !local(t) {
			elems += n
		}
	})
	return elems * lc.ElemSize
}

// lowerBound is the composed-offset halo minimum for a DAG of the given
// composed reach under the layout's strip assignment: every assignment
// run must bring in its dependence cone's width in each direction,
// clamped at the file edges, except what lies on strips its own server is
// the primary of. Replica-prepaid halos (DAS layouts) can beat this bound
// at run time — it prices an unreplicated placement.
func lowerBound(lc layout.Locator, p Params, runs [][]stripRun, back, fwd int64) int64 {
	var bytes int64
	for srv, rs := range runs {
		for _, run := range rs {
			bytes += run.remoteBytes(lc, p.TotalElems(), back, fwd, func(t int64) bool { return lc.Layout.Primary(t) == srv })
		}
	}
	return bytes
}

// price prices a whole operator DAG for server-side pushdown, decided in
// one shot instead of one accept/reject per kernel. Every fusion depth's
// schedule is priced in simulated seconds and the cheapest runs, ties to
// the shallower; its input halo fetch and intermediate band exchange are
// the moving bytes, set against both the per-pass offload (which writes
// every intermediate raster back with replicas) and traditional storage
// (which ships every raster to a compute node and back).
func (spec PipelineSpec) price(d *Decision, p Params, lc layout.Locator, _ func(srv int) bool) error {
	if len(spec.Stages) == 0 {
		return fmt.Errorf("predict: pipeline with no stages")
	}
	if len(spec.Depths) == 0 || len(spec.Depths) > len(spec.Stages) {
		return fmt.Errorf("predict: %d fusion depths for %d stages", len(spec.Depths), len(spec.Stages))
	}
	if err := spec.Platform.Validate(); err != nil {
		return err
	}
	d.Analysis = Analysis{Layout: lc.Layout.Name()}
	d.InputReplicaBytes = 0 // placed at ingest; kernel pricing charges it all the same (DESIGN.md §3.1)
	runs, _ := assignmentRuns(lc, p.FileSize, nil)
	d.Depths = make([]DepthPrice, len(spec.Depths))
	for k, rounds := range spec.Depths {
		if len(rounds) == 0 {
			return fmt.Errorf("predict: fusion depth %d has no rounds", k+1)
		}
		d.Depths[k] = spec.priceSchedule(rounds, p, lc, runs)
		if d.Depth == 0 || d.Depths[k].Seconds < d.Depths[d.Depth-1].Seconds {
			d.Depth = k + 1
		}
	}
	chosen := d.Depths[d.Depth-1]
	d.FetchBytes, d.ExchangeBytes = chosen.FetchBytes, chosen.ExchangeBytes
	d.Stages, d.FusedStages = len(spec.Stages), spec.FusedStages(d.Depth)
	d.LowerBoundBytes = lowerBound(lc, p, runs, spec.DAGBack, spec.DAGFwd)

	// Alternatives. Per-pass offload: every stage fetches its own halo
	// beyond what each run's server holds and every raster-producing stage
	// pays replica writeback of its output. Traditional storage: every
	// pass ships the raster down and the result back (the reduce returns
	// only an aggregate, but still reads the raster).
	outBytes := int64(float64(p.FileSize) * p.OutputFactor)
	for _, st := range spec.Stages {
		if st.Reduce {
			continue
		}
		for srv, rs := range runs {
			for _, run := range rs {
				d.PerPassNetBytes += run.remoteBytes(lc, p.TotalElems(), st.Back, st.Fwd, func(t int64) bool { return lc.Layout.Holders(t).Has(srv) })
			}
		}
		d.PerPassNetBytes += d.OutputReplicaBytes
		d.NormalNetBytes += p.FileSize + outBytes
	}
	if spec.Stages[len(spec.Stages)-1].Reduce {
		d.NormalNetBytes += p.FileSize
	}
	return nil
}

// busy is one server's resource time within a round: what the floors of
// the round's critical path are made of.
type busy struct{ egress, ingress, disk sim.Time }

// priceSchedule walks a schedule round by round over each server's
// assignment runs (DESIGN.md §14 *What a depth is priced at*). On each
// server a round takes its runs the way the run loop walks them, one run
// assembled ahead: the first run's assembly, then per later run the
// longer of the previous run's compute and this run's assembly, then the
// last compute and, in the storing round, the last write or its replica
// forwards. A round that reads the input leads its fetches as the run
// loop does: from run 2 on, a run's messages leave as the previous run's
// assembly starts, with the compute two runs back, and only its local
// read waits for the previous run's compute to start. It lasts at least
// as long as that server's egress, ingress and disk are busy, and the
// slowest server ends it, one dispatch round trip later. A message costs egress serialisation + Latency + ingress
// serialisation, store and forward, and a run's messages arrive through
// its one ingress.
func (spec PipelineSpec) priceSchedule(rounds []PipelineRound, p Params, lc layout.Locator, runs [][]stripRun) DepthPrice {
	cfg := spec.Platform
	lay, total := lc.Layout, p.TotalElems()
	lat := cfg.Net.Latency
	wire := func(bytes int64) sim.Time { return sim.TransferTime(bytes, cfg.Net.BytesPerSec) }
	read := func(bytes int64) sim.Time {
		return cfg.Disk.SeekTime + sim.TransferTime(bytes, cfg.Disk.ReadBytesPerSec)
	}
	write := func(bytes int64) sim.Time {
		return cfg.Disk.SeekTime + sim.TransferTime(bytes, cfg.Disk.WriteBytesPerSec)
	}
	// In the storing round a server forwards each run's output as its
	// compute ends, and a message it sends for another server's run waits
	// behind one run's forwards on its FIFO egress.
	queue := make([]sim.Time, lay.Servers())
	for srv, rs := range runs {
		for _, run := range rs {
			var sent sim.Time
			_, bytes := forwards(lc, p.FileSize, run, srv)
			for _, b := range bytes {
				sent += wire(b)
			}
			queue[srv] = max(queue[srv], sent)
		}
	}

	price := DepthPrice{Seconds: cfg.Startup}
	for r, rd := range rounds {
		final := r == len(rounds)-1
		load := make([]busy, lay.Servers())
		walks := make([]sim.Time, lay.Servers())
		for srv, rs := range runs {
			var walk, prevWalk, prevCompute sim.Time // walk, prevWalk: when the last two runs' computes started
			for i, run := range rs {
				// Assembly: the run's own messages, each from one source
				// server, after whatever it reads from its own disk.
				type msg struct {
					from  int
					bytes int64
					disk  bool // a fetched strip is read off its primary's disk
				}
				var msgs []msg
				var local sim.Time
				if rd.Input >= 0 {
					held := (run.hi - run.lo) * lc.ElemSize
					run.reached(lc, total, rd.Input, rd.Input, func(t, n int64) {
						if lay.Holders(t).Has(srv) {
							held += n * lc.ElemSize
						} else {
							msgs = append(msgs, msg{lay.Primary(t), n * lc.ElemSize, true})
							price.FetchBytes += n * lc.ElemSize
						}
					})
					local = read(held)
					load[srv].disk += local
				}
				for _, h := range rd.Pulls {
					from := len(msgs)
					run.reached(lc, total, h, h, func(t, n int64) {
						owner := lay.Primary(t)
						if owner == srv {
							return
						}
						price.ExchangeBytes += n * lc.ElemSize
						for j := from; j < len(msgs); j++ {
							if msgs[j].from == owner {
								msgs[j].bytes += n * lc.ElemSize
								return
							}
						}
						msgs = append(msgs, msg{owner, n * lc.ElemSize, false})
					})
				}
				var arrive sim.Time
				for _, m := range msgs {
					serve := sim.Time(0)
					if m.disk {
						serve = read(m.bytes)
						load[m.from].disk += serve
					}
					leave := lat + serve
					if final {
						leave += queue[m.from]
					}
					load[m.from].egress += wire(m.bytes)
					load[srv].ingress += wire(m.bytes)
					arrive = max(arrive, leave+wire(m.bytes)+lat) + wire(m.bytes)
				}
				assemble := local + arrive

				var weighted float64
				for _, e := range rd.Evals {
					weighted += e.Weight * float64(min(run.hi+e.Need, total)-max(run.lo-e.Need, 0))
				}
				compute := sim.Time(weighted * cfg.ComputeNsPerElem)

				switch {
				case i == 0:
					walk = assemble
				case i >= 2 && rd.Input >= 0:
					// Led: run i's fetches left as run i−1's assembly
					// started, with run i−2's compute.
					walk, prevWalk = max(walk+max(prevCompute, local), prevWalk+arrive), walk
				default:
					walk, prevWalk = walk+max(prevCompute, assemble), walk
				}
				prevCompute = compute
				if !final {
					continue
				}
				// The run's output is written locally one run behind and
				// forwarded to its other holders, one message per holder.
				bytes := (run.hi - run.lo) * lc.ElemSize
				load[srv].disk += write(bytes)
				tail := write(bytes)
				holders, sizes := forwards(lc, p.FileSize, run, srv)
				for j, h := range holders {
					b := sizes[j]
					load[srv].egress += wire(b)
					load[h].ingress += wire(b)
					load[h].disk += write(b)
					tail = max(tail, wire(b)+lat+wire(b)+write(b)+lat)
				}
				if i == len(rs)-1 {
					walk += tail
				}
			}
			walks[srv] = walk + prevCompute
		}
		var slowest sim.Time
		for srv, b := range load {
			slowest = max(slowest, walks[srv], b.egress, b.ingress, b.disk)
		}
		price.Seconds += slowest + 2*lat
	}
	return price
}

// forwards returns, per server other than srv that holds some strip of
// the run, the bytes of the run it holds: one forward message each, in
// order of first appearance.
func forwards(lc layout.Locator, fileSize int64, run stripRun, srv int) (holders []int, bytes []int64) {
	for t := run.first; t <= run.last; t++ {
		lo, hi := lc.StripBounds(t, fileSize)
		for hs, i := lc.Layout.Holders(t), 0; i < hs.Len(); i++ {
			h := hs.At(i)
			if h == srv {
				continue
			}
			j := slices.Index(holders, h)
			if j < 0 {
				j = len(holders)
				holders, bytes = append(holders, h), append(bytes, 0)
			}
			bytes[j] += hi - lo
		}
	}
	return holders, bytes
}

func (spec PipelineSpec) reason(d *Decision) string {
	switch {
	case !d.Offload:
		return fmt.Sprintf("rejected: pushdown would move %d bytes vs %d for normal I/O", d.OffloadNetBytes, d.NormalNetBytes)
	case !d.BeatsPerPass:
		return fmt.Sprintf("pushdown moves %d bytes but per-pass offload moves %d; prefer per-pass", d.OffloadNetBytes, d.PerPassNetBytes)
	default:
		return fmt.Sprintf("pushdown moves %d bytes vs %d per-pass and %d normal (%d-stage DAG, %d fused, lower bound %d)",
			d.OffloadNetBytes, d.PerPassNetBytes, d.NormalNetBytes, d.Stages, d.FusedStages, d.LowerBoundBytes)
	}
}
