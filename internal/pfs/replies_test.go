package pfs

import (
	"errors"
	"testing"

	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/simnet"
)

// Every reply-bearing branch of the pfs handlers — the request chain's and
// the handler process's — answers a request it cannot serve with exactly
// one error reply. A branch that dropped its reply would park the caller,
// which Run reports; one that answered twice would unbalance the reply
// ledger, which each case checks at quiescence.
func TestEveryHandlerBranchReplies(t *testing.T) {
	strip := make([]byte, 256)
	for _, tc := range []struct {
		name    string
		payload any
		code    errCode
	}{
		{"unknown payload", "hello", codeBadRequest},
		{"read of a missing file", &readReq{File: "nope", Spans: []Span{{Strip: 0}}}, codeNotFound},
		{"batched read of a missing file", &readReq{File: "nope", Spans: []Span{{Strip: 0}, {Strip: 1}}}, codeNotFound},
		{"write to a missing file", &writeReq{File: "nope", Strips: []int64{0}, Data: [][]byte{strip}}, codeInternal},
		{"batched write to a missing file", &writeReq{File: "nope", Strips: []int64{0, 1}, Data: [][]byte{strip, strip}}, codeInternal},
		{"forwarding write of the wrong size", &writeReq{File: "f", Strips: []int64{0}, Data: [][]byte{strip[:7]}, Forward: true}, codeInternal},
		{"forwarding batched write of the wrong size", &writeReq{File: "f", Strips: []int64{0, 1}, Data: [][]byte{strip, strip[:7]}, Forward: true}, codeInternal},
		{"migration of a missing file", migrateReq{File: "nope", Targets: []int{1}}, codeNotFound},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A platform per case, so a parked caller fails only its own.
			clu, fs := testFS(t)
			// Two copies of every strip, so a forwarding write reaches the
			// handler process instead of the request chain.
			if _, err := fs.Create("f", 1024, layout.NewReplicatedRoundRobin(4, 2), CreateOptions{StripSize: 256}); err != nil {
				t.Fatal(err)
			}
			resp, ok := callServer(t, clu.Net, clu.Eng, clu.ComputeID(0), clu.StorageID(0), tc.payload).(errResp)
			if !ok || resp.Code != tc.code {
				t.Errorf("reply %+v, want one errResp with code %d", resp, tc.code)
			}
		})
	}
}

func TestMigrateFromAServerWithoutTheStripFails(t *testing.T) {
	clu, fs := testFS(t)
	if _, err := fs.Create("f", 1024, layout.NewRoundRobin(4), CreateOptions{StripSize: 256}); err != nil {
		t.Fatal(err)
	}
	run(t, clu, func(p *sim.Proc) {
		if err := fs.NewClient(clu.ComputeID(0)).WriteAll(p, "f", pattern(1024)); err != nil {
			t.Error(err)
			return
		}
		// Strip 0 lives on server 0 alone.
		err := fs.MigrateStrip(p, clu.ComputeID(0), 1, "f", 0, []int{2})
		if !errors.Is(err, ErrStripNotHeld) {
			t.Errorf("MigrateStrip via a non-holder: %v, want ErrStripNotHeld", err)
		}
	})
	if err := clu.Net.CheckReplies(); err != nil {
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
		resp = net.Call(p, simnet.Message{From: from, To: to, Port: Port, Size: HeaderBytes,
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
