package pipeline

import (
	"testing"

	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/pfs"
	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/simnet"
)

// Every reply-bearing branch of the pipeline handler — a stage, a band
// pull, an unknown request — answers a request it cannot serve with
// exactly one error reply. A branch that dropped its reply would park the
// caller, which Run reports; one that answered twice would unbalance the
// reply ledger, which each case checks at quiescence.
func TestEveryHandlerBranchReplies(t *testing.T) {
	for _, tc := range []struct {
		name    string
		payload any
	}{
		{"unknown payload", "hello"},
		{"stage over a missing input", stageReq{Token: "t", DAG: chain3(), Input: "nope", Output: "out", Strips: []int64{0}, Depth: 1}},
		{"stage into a missing output", stageReq{Token: "t", DAG: chain3(), Input: "in", Output: "nope", Strips: []int64{0}, Depth: 1}},
		{"stage past the leading chain", stageReq{Token: "t", DAG: chain3(), Input: "in", Output: "out", Strips: []int64{0}, Depth: 4}},
		{"band pull of an unknown run", bandReq{Token: "nope", Spans: []bandSpan{{Strip: 0, Hi: 1}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A platform per case, so a parked caller fails only its own.
			rig := newRig(t, layout.NewRoundRobin(4), testW, testH, testStrip)
			rig.createOut(t, "out")
			var msg string
			switch r := callServer(t, rig.clu.Net, rig.clu.Eng, rig.clu.ComputeID(0), rig.clu.StorageID(0), tc.payload).(type) {
			case stageResp:
				msg = r.Err
			case bandResp:
				msg = r.Err
			}
			if msg == "" {
				t.Error("no error reply")
			}
		})
	}
}

func TestStageHardErrorReachesTheClient(t *testing.T) {
	rig := newRig(t, layout.NewRoundRobin(4), testW, testH, testStrip)
	rig.createOut(t, "out")
	// Strip 1 has no copy left anywhere: the round that owns it cannot
	// assemble it, and reassigning cannot help.
	rig.fs.Server(1).Drop("in", 1)
	if _, err := rig.pipeline(t, chain3(), "in", "out"); err == nil {
		t.Error("pipeline run succeeded without strip 1")
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
