package active

import (
	"testing"

	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/pfs"
	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/simnet"
)

// Every reply-bearing branch of the AS handler — exec's, the reduction's
// validation and walk, an unknown request — answers a request it cannot
// serve with exactly one error reply. A branch that dropped its reply would
// park the caller, which Run reports; one that answered twice would
// unbalance the reply ledger, which each case checks at quiescence.
func TestEveryHandlerBranchReplies(t *testing.T) {
	for _, tc := range []struct {
		name    string
		payload any
	}{
		{"unknown payload", "hello"},
		{"exec of a missing input", execReq{Op: "gaussian-filter", Input: "nope", Output: "out", Strips: []int64{0}}},
		{"exec into a missing output", execReq{Op: "gaussian-filter", Input: "in", Output: "nope", Strips: []int64{0}}},
		{"reduction by an unknown reducer", reduceReq{Op: "nope", Input: "in", Strips: []int64{0}}},
		{"reduction of a missing file", reduceReq{Op: "stats", Input: "nope", Strips: []int64{0}}},
		{"reduction of a file without raster metadata", reduceReq{Op: "stats", Input: "raw", Strips: []int64{0}}},
		// Strip 1 lives on server 1: the walk's local read fails.
		{"reduction of a strip the server does not hold", reduceReq{Op: "stats", Input: "in", Strips: []int64{1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A platform per case, so a parked caller fails only its own.
			rig := newRig(t, layout.NewRoundRobin(4), testW, testH, testStrip)
			rig.createOut(t, "out")
			if _, err := rig.fs.Create("raw", 1024, layout.NewRoundRobin(4), pfs.CreateOptions{StripSize: 512}); err != nil {
				t.Fatal(err)
			}
			var msg string
			switch r := callServer(t, rig.clu.Net, rig.clu.Eng, rig.clu.ComputeID(0), rig.clu.StorageID(0), tc.payload).(type) {
			case *execResp:
				msg = r.Err
			case reduceResp:
				msg = r.Err
			}
			if msg == "" {
				t.Error("no error reply")
			}
		})
	}
}

func TestExecReduceFailsWhenTheAssignedHolderLostTheStrip(t *testing.T) {
	rig := newRig(t, layout.NewRoundRobin(4), testW, testH, testStrip)
	rig.fs.Server(1).Drop("in", 1)
	var err error
	rig.run(t, func(p *sim.Proc) error {
		_, _, err = NewClient(rig.fs, rig.clu.ComputeID(0)).ExecReduce(p, kernels.Stats{}, "in")
		return nil
	})
	if err == nil {
		t.Error("ExecReduce succeeded without strip 1")
	}
	if err := rig.clu.Net.CheckReplies(); err != nil {
		t.Error(err)
	}
}

// callServer sends payload straight to a server's port from node from, runs
// the platform to quiescence, and returns the one response. It fails t
// unless the request was delivered and answered exactly once.
func callServer(t *testing.T, net *simnet.Network, eng *sim.Engine, from, to int, payload any) any {
	t.Helper()
	d0, a0 := net.Replies()
	var resp any
	eng.Spawn("caller", func(p *sim.Proc) {
		resp = net.Call(p, simnet.Message{From: from, To: to, Port: Port, Size: pfs.HeaderBytes,
			Class: metrics.ClientToServer, Payload: payload}).Payload
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if d, a := net.Replies(); d-d0 != 1 || a-a0 != 1 {
		t.Errorf("ledger moved by %d delivered, %d answered; want 1, 1", d-d0, a-a0)
	}
	return resp
}
