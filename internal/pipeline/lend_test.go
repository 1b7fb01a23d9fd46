package pipeline

import (
	"math"
	"runtime"
	"testing"

	"github.com/hpcio/das/internal/fault"
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/simnet"
)

// stageOnPrimaries runs one round of d on every server over the strips it
// is primary for, the way a fault-free dispatch would, and returns the
// owners table later rounds pull by.
func stageOnPrimaries(t *testing.T, rig *testRig, p *sim.Proc, req stageReq) []int32 {
	t.Helper()
	in, _ := rig.fs.Meta(req.Input)
	owners := make([]int32, in.Strips())
	assigned := make([][]int64, rig.fs.Servers())
	for s := int64(0); s < in.Strips(); s++ {
		owners[s] = int32(in.Layout.Primary(s))
		assigned[owners[s]] = append(assigned[owners[s]], s)
	}
	if req.Round > 0 {
		req.Owners = owners
	}
	for srv, strips := range assigned {
		req.Strips = strips
		if _, err := rig.svc.stage(p, rig.fs.Server(srv), req, rig.clu.ComputeID(0)); err != nil {
			t.Fatalf("round %d on server %d: %v", req.Round, srv, err)
		}
	}
	return owners
}

// TestPulledWindowOutlivesOwnerState is pfs.TestLentViewOutlivesTheStrip
// for node state: a parent band holds, as windows, slices of other servers'
// retained state (bandResp aliases it). Kept state is never written and
// never pooled, so the windows read the same after the owners let go of
// the run — by the client's release, and by the purge that follows a
// restart — with every pool scribbling over whatever reaches it.
func TestPulledWindowOutlivesOwnerState(t *testing.T) {
	audited(t)
	rig := newRig(t, layout.NewRoundRobin(4), testW, testH, testStrip)
	rig.createOut(t, "out")
	d := chain3()
	gauss, _ := kernels.Default().Lookup("gaussian-filter")
	routing, _ := kernels.Default().Lookup("flow-routing")
	stage0 := kernels.Apply(gauss, rig.g)
	stage1 := kernels.Apply(routing, stage0)

	rig.run(t, func(p *sim.Proc) error {
		req := stageReq{Token: "lend", DAG: d, Input: "in", Output: "out", Depth: 1}
		req.Owners = stageOnPrimaries(t, rig, p, req)
		req.Round = 1

		// Server 0 owns strip 4; flow-routing's halo of 65 elements reaches
		// into strips 2, 3, 5 and 6, held by servers 2, 3, 1 and 2.
		srv := rig.fs.Server(0)
		in, _ := rig.fs.Meta("in")
		const e0, e1 = 4 * testW, 5 * testW
		plo, phi := grid.HaloRange(e0, e1, testW+1, rig.g.Len())
		var resp stageResp
		band, err := rig.svc.parentValues(p, srv, rig.svc.runs[0]["lend"], in, req, 0, e0, e1, plo, phi, &resp)
		if err != nil {
			return err
		}
		defer band.Release()
		if resp.ExchangeOps != 4 {
			t.Fatalf("%d spans pulled, want 4: the test would not hold other servers' state", resp.ExchangeOps)
		}
		local := rig.svc.runs[0]["lend"].state[0][4]
		if got := band.Run(e0, e1); &got[0] != &local[0] {
			t.Error("the strip this server retains was copied into the band, not lent")
		}
		theirs := rig.svc.runs[1]["lend"].state[0][5]
		if got := band.Run(e1, phi); &got[0] != &theirs[0] {
			t.Error("a pulled span was copied into the band, not lent")
		}

		// The owners drop the run: servers 1 and 2 on the client's release,
		// server 3 by restarting and purging the old incarnation's state on
		// the next request that names the token.
		for _, s := range []int{1, 2} {
			rig.svc.handle(p, rig.fs.Server(s), simnet.Message{Payload: releaseReq{Token: "lend"}})
		}
		for _, kind := range []fault.Kind{fault.Crash, fault.Restart} {
			if err := rig.clu.ApplyFault(fault.Event{Kind: kind, Server: 3}); err != nil {
				return err
			}
		}
		if got := rig.svc.band(rig.fs.Server(3), bandReq{Token: "lend"}); !got.Transient {
			t.Errorf("restarted server answered a pull from ghost state: %+v", got)
		}
		for s := 1; s <= 3; s++ {
			if _, held := rig.svc.runs[s]["lend"]; held {
				t.Fatalf("server %d still holds the run", s)
			}
		}

		for i := plo; i < phi; i++ {
			if math.Float64bits(band.At(i)) != math.Float64bits(stage0.Data[i]) {
				t.Fatalf("parent element %d reads %v after its owner dropped the run, want %v", i, band.At(i), stage0.Data[i])
			}
		}
		out := make([]float64, e1-e0)
		rig.svc.runs[0]["lend"].plan.applyKernel(out, 1, band, nil)
		for i, v := range out {
			if math.Float64bits(v) != math.Float64bits(stage1.Data[e0+int64(i)]) {
				t.Fatalf("kernel over the lent parent: element %d = %v, want %v", e0+i, v, stage1.Data[e0+int64(i)])
			}
		}
		return nil
	})
}

// TestLaterRoundAllocatesNoParentRaster: a round past the first reads its
// parent's values where the previous round kept them, strip by strip, and
// where band pulls returned them. Its output is the one raster it
// allocates; gathering the parent into a second one would show as at
// least as much again.
func TestLaterRoundAllocatesNoParentRaster(t *testing.T) {
	const w, h, group = 512, 64, 16 // one row per strip, 16 strips a server
	rig := newRig(t, layout.NewGrouped(4, group), w, h, w*grid.ElemSize)
	rig.createOut(t, "out")
	rig.run(t, func(p *sim.Proc) error {
		req := stageReq{Token: "alloc", DAG: chain3(), Input: "in", Output: "out", Depth: 1}
		req.Owners = stageOnPrimaries(t, rig, p, req)
		req.Round = 1
		for s := int64(group); s < 2*group; s++ {
			req.Strips = append(req.Strips, s) // server 1's run: halo strips on both sides are pulled
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp, err := rig.svc.stage(p, rig.fs.Server(1), req, rig.clu.ComputeID(0))
		runtime.ReadMemStats(&after)
		if err != nil {
			return err
		}
		if resp.ExchangeOps == 0 {
			t.Fatal("no band pulled: the round would not cover lent pulls")
		}
		const output = group * w * grid.ElemSize
		if extra := int64(after.TotalAlloc-before.TotalAlloc) - output; extra > output/2 {
			t.Errorf("round 1 over %d strips allocated %d bytes beyond its %d-byte output: the parent was gathered, not lent",
				group, extra, output)
		}
		return nil
	})
}
