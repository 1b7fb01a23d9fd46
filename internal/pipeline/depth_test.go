package pipeline

import (
	"fmt"
	"testing"

	"github.com/hpcio/das/internal/fault"
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/sim"
)

// terrain4 is the terrain chain the pipeline experiment runs.
func terrain4() kernels.DAG {
	return kernels.Chain("terrain4", []string{"gaussian-filter", "flow-routing", "flow-accumulation"}, "stats")
}

// TestPricedBytesMatchEveryForcedDepth: the bytes the price charges a
// fusion depth are the bytes a run at that depth moves — input halo
// fetched and bands exchanged, counted per assignment run against what
// its server holds, clamped at the file edges — on round-robin, where a
// deep halo reaches back onto the run's own server, and on two grouped
// layouts whose replicas prepay part of it. On round-robin, which
// prepays nothing, every depth moves at least the composed-offset bound.
func TestPricedBytesMatchEveryForcedDepth(t *testing.T) {
	const w, h = 256, 96 // one row a strip
	d := terrain4()
	var want *grid.Grid
	for _, lay := range []layout.Layout{layout.NewRoundRobin(4), layout.NewGroupedReplicated(4, 2, 2), layout.NewGroupedReplicated(4, 8, 2)} {
		rig := newRig(t, lay, w, h, w*grid.ElemSize)
		if want == nil {
			var err error
			if want, err = kernels.ApplyDAG(d, kernels.Default(), kernels.DefaultCombiners(), rig.g); err != nil {
				t.Fatal(err)
			}
		}
		_, dec := rig.mustPrice(t, d, 0)
		if len(dec.Depths) != 3 {
			t.Fatalf("%s: %d depths priced, want 3", lay.Name(), len(dec.Depths))
		}
		for depth := 1; depth <= len(dec.Depths); depth++ {
			out := fmt.Sprintf("out%d", depth)
			rig.createOut(t, out)
			res, err := rig.pipelineAt(t, d, "in", out, depth)
			if err != nil {
				t.Fatal(err)
			}
			if got := rig.fetch(t, out); !got.Equal(want) {
				t.Errorf("%s depth %d: output differs from the sequential reference", lay.Name(), depth)
			}
			priced := dec.Depths[depth-1]
			if res.Depth != depth || res.FetchBytes != priced.FetchBytes || res.ExchangeBytes != priced.ExchangeBytes {
				t.Errorf("%s depth %d (ran %d): fetched %d exchanged %d, priced %d and %d", lay.Name(), depth, res.Depth,
					res.FetchBytes, res.ExchangeBytes, priced.FetchBytes, priced.ExchangeBytes)
			}
			if _, rr := lay.(layout.RoundRobin); rr && res.AchievedHaloBytes < res.LowerBoundBytes {
				t.Errorf("%s depth %d: achieved %d below the composed-offset bound %d", lay.Name(), depth,
					res.AchievedHaloBytes, res.LowerBoundBytes)
			}
		}
	}
}

// TestPricedDepthIsNeverSlower runs the pipeline experiment's four
// pushdown cells at its reduced scale — 8 nodes, a 2 paper-GB terrain
// 8192 wide in 64 KiB strips, on round-robin, the layout planned for the
// chain's first kernel, and the mirrored layout healthy and with server 1
// crashing at half the healthy time and restarting 80 ms later — at every
// fusion depth, and at the one the gate prices. On a healthy cluster
// the priced depth is never slower than any forced one.
//
// The crash cell is run and logged, not asserted, and that is a miss of
// the price, not a property of it: the price is of a healthy cluster (a
// mid-run crash is no static input), and here the crash lands 20 ms into
// the whole chain's single round, which server 1's holders then redo. The
// priced depth 3 takes 115.5 ms there against 99.2 ms at depth 2. Landing
// 10 ms later (no launch time counted) it takes 92.4 ms against 124.1 ms,
// and at full scale (the committed record) depth 3 is the fastest too.
// Acking stored runs does not close the gap (115.503 ms without acks,
// 115.506 ms with them): server 1 stays down through the recovery wave,
// so its two live holders split its lost runs two deep either way.
func TestPricedDepthIsNeverSlower(t *testing.T) {
	d := terrain4()
	cells := []struct {
		name  string
		lay   layout.Layout
		crash bool
	}{
		{"rr", layout.NewRoundRobin(4), false},
		{"planned", layout.NewGroupedReplicated(4, 8, 2), false},
		{"mirrored", layout.NewGroupedReplicated(4, 2, 2), false},
		{"mirrored crash+restart", layout.NewGroupedReplicated(4, 2, 2), true},
	}
	var want *grid.Grid
	// run times one pushdown at depth (0: priced) on a fresh platform,
	// verifying its output.
	run := func(lay layout.Layout, depth int, plan fault.Plan) (sim.Time, RunResult) {
		rig := newQuickRig(t, lay)
		if want == nil {
			var err error
			if want, err = kernels.ApplyDAG(d, kernels.Default(), kernels.DefaultCombiners(), rig.g); err != nil {
				t.Fatal(err)
			}
		}
		rig.createOut(t, "out")
		if err := rig.clu.InstallFaultPlan(plan); err != nil { // events count from now
			t.Fatal(err)
		}
		// The cell's time starts with the job's launch, as core's does: the
		// crash lands at half of it.
		start := rig.clu.Eng.Now()
		pl, price := rig.mustPrice(t, d, depth)
		var res RunResult
		var err error
		rig.run(t, func(p *sim.Proc) error {
			p.Sleep(rig.clu.Cfg.Startup)
			res, err = rig.svc.NewClient(rig.clu.ComputeID(0)).Run(p, pl, price, "in", "out")
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		took := rig.clu.Eng.Now() - start
		if got := rig.fetch(t, "out"); !got.Equal(want) {
			t.Errorf("%s depth %d: output differs from the sequential reference", lay.Name(), depth)
		}
		return took, res
	}
	for _, c := range cells {
		times := make([]sim.Time, 4) // [0] priced, [k] forced depth k
		var priced int
		for depth := range times {
			var plan fault.Plan
			if c.crash {
				healthy, _ := run(c.lay, depth, fault.Plan{})
				plan.Events = []fault.Event{
					{At: healthy / 2, Kind: fault.Crash, Server: 1},
					{At: healthy/2 + 80*sim.Millisecond, Kind: fault.Restart, Server: 1},
				}
			}
			var res RunResult
			times[depth], res = run(c.lay, depth, plan)
			if depth == 0 {
				priced = res.Depth
			}
		}
		t.Logf("%s: priced depth %d took %v; depths 1-3 took %v", c.name, priced, times[0], times[1:])
		if c.crash {
			continue
		}
		for depth := 1; depth < len(times); depth++ {
			if times[0] > times[depth] {
				t.Errorf("%s: the priced depth %d took %v, depth %d %v", c.name, priced, times[0], depth, times[depth])
			}
		}
	}
}
