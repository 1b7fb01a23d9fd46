package simnet

import (
	"strings"
	"testing"

	"github.com/hpcio/das/internal/fault"
	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/sim"
)

// The reply ledger counts a request when it reaches its port and a
// response when it is sent. These tests pin both edges: what the wire
// loses before a handler sees it is owed nothing, and what a handler sends
// counts whatever the wire then does with it.

// ledgerServer answers each request on node's "rpc" port `answers` times.
// A handler that answers zero times or twice is the bug the ledger exists
// to see.
func ledgerServer(eng *sim.Engine, net *Network, node, answers int) {
	eng.SpawnDaemon("server", func(p *sim.Proc) {
		port := net.Node(node).Port("rpc")
		for {
			req := port.Get(p)
			for i := 0; i < answers; i++ {
				net.Respond(p, req, "ok", 10, metrics.ServerToClient)
			}
		}
	})
}

func wantLedger(t *testing.T, net *Network, delivered, answered uint64) {
	t.Helper()
	if d, a := net.Replies(); d != delivered || a != answered {
		t.Errorf("ledger %d delivered, %d answered; want %d, %d", d, a, delivered, answered)
	}
}

// rpc is a request from node 0 to node `to`'s rpc port.
func rpc(to int) Message {
	return Message{From: 0, To: to, Port: "rpc", Size: 10, Class: metrics.ClientToServer}
}

func TestLedgerCountsALoopbackCallOnceEachWay(t *testing.T) {
	eng, net := newNet(t, 1, 1e6, sim.Millisecond)
	ledgerServer(eng, net, 0, 1)
	eng.SpawnDaemon("sink", func(p *sim.Proc) { net.Node(0).Port("oneway").Get(p) })
	eng.Spawn("client", func(p *sim.Proc) {
		net.Call(p, rpc(0))
		// A one-way message carries no Reply mailbox and owes nothing.
		net.Send(p, Message{From: 0, To: 0, Port: "oneway"})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	wantLedger(t, net, 1, 1)
	if err := net.CheckReplies(); err != nil {
		t.Error(err)
	}
	eng.Shutdown()
}

func TestLedgerCountsEveryCallingEntryPoint(t *testing.T) {
	eng, net := newNet(t, 2, 1e6, sim.Millisecond)
	ledgerServer(eng, net, 0, 1)
	ledgerServer(eng, net, 1, 1)
	var responses int
	eng.Spawn("client", func(p *sim.Proc) {
		net.Call(p, rpc(1))
		if _, ok := net.CallCancelable(p, rpc(1), 0, sim.Second, nil); !ok {
			t.Error("CallCancelable gave up on a healthy network")
		}
		net.CallTask(rpc(0), responderFn(func(Message) { responses++ }))
		net.CallTask(rpc(1), responderFn(func(Message) { responses++ }))
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if responses != 2 {
		t.Errorf("CallTask responses %d, want 2", responses)
	}
	wantLedger(t, net, 4, 4)
	eng.Shutdown()
}

func TestLedgerNeverCountsALostRequest(t *testing.T) {
	for _, tc := range []struct {
		name  string
		apply func(*fault.State)
	}{
		{"loss", func(f *fault.State) { f.SetLoss(1, 0) }},
		{"down-destination", func(f *fault.State) { f.SetDown(1, true) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, net := newNet(t, 2, 1e6, sim.Millisecond)
			f := fault.NewState(7, metrics.NewRegistry())
			tc.apply(f)
			net.SetFaults(f)
			ledgerServer(eng, net, 1, 1)
			eng.Spawn("client", func(p *sim.Proc) {
				if _, ok := net.CallCancelable(p, rpc(1), 0, 100*sim.Millisecond, nil); ok {
					t.Error("a lost request was answered")
				}
				net.CallTask(rpc(1), responderFn(func(Message) { t.Error("a lost CallTask request was answered") }))
			})
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			wantLedger(t, net, 0, 0)
			eng.Shutdown()
		})
	}
}

func TestLedgerCountsAResponseTheWireLoses(t *testing.T) {
	// The server crashes between receiving the request and answering it:
	// its response never leaves the node, but the handler did its part.
	eng, net := newNet(t, 2, 1e6, sim.Millisecond)
	f := fault.NewState(7, metrics.NewRegistry())
	net.SetFaults(f)
	eng.SpawnDaemon("server", func(p *sim.Proc) {
		req := net.Node(1).Port("rpc").Get(p)
		f.SetDown(1, true)
		net.Respond(p, req, "lost", 10, metrics.ServerToClient)
	})
	eng.Spawn("client", func(p *sim.Proc) {
		if _, ok := net.CallCancelable(p, rpc(1), 0, 100*sim.Millisecond, nil); ok {
			t.Error("a response from a crashed server arrived")
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	wantLedger(t, net, 1, 1)
	if err := net.CheckReplies(); err != nil {
		t.Error(err)
	}
	eng.Shutdown()
}

func TestLedgerCatchesADroppedAndADoubledReply(t *testing.T) {
	for _, tc := range []struct {
		answers             int
		delivered, answered uint64
	}{
		{answers: 0, delivered: 1, answered: 0},
		{answers: 2, delivered: 1, answered: 2},
	} {
		eng, net := newNet(t, 2, 1e6, sim.Millisecond)
		ledgerServer(eng, net, 1, tc.answers)
		eng.Spawn("client", func(p *sim.Proc) {
			net.CallCancelable(p, rpc(1), 0, 100*sim.Millisecond, nil)
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		wantLedger(t, net, tc.delivered, tc.answered)
		err := net.CheckReplies()
		if err == nil || !strings.Contains(err.Error(), "requests delivered") {
			t.Errorf("%d answers: CheckReplies = %v, want the imbalance reported", tc.answers, err)
		}
		eng.Shutdown()
	}
}

// TestCheckCatchesAnUnreadMessage: a Send to a port nobody reads stays
// queued there, which the check reports by node and port; Transfer moves
// the same bytes in the same time, counts the same traffic and leaves
// nothing queued.
func TestCheckCatchesAnUnreadMessage(t *testing.T) {
	var took [2]sim.Time
	var moved [2]int64
	for i, send := range []bool{true, false} {
		eng, net := newNet(t, 2, 1e6, sim.Millisecond)
		eng.Spawn("client", func(p *sim.Proc) {
			if send {
				net.Send(p, Message{From: 0, To: 1, Port: "sink", Size: 1000, Class: metrics.ClientToServer})
			} else {
				net.Transfer(p, 0, 1, 1000, metrics.ClientToServer)
			}
			took[i] = p.Now()
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		moved[i] = net.Traffic().Bytes(metrics.ClientToServer)
		err := net.CheckReplies()
		if want := `node 1 port "sink" holds 1 unread messages`; send && (err == nil || !strings.Contains(err.Error(), want)) {
			t.Errorf("after a Send nobody reads: CheckReplies = %v, want %q", err, want)
		}
		if !send && err != nil {
			t.Errorf("after a Transfer: CheckReplies = %v", err)
		}
		eng.Shutdown()
	}
	if took[0] != took[1] || moved[0] != moved[1] || moved[0] != 1000 {
		t.Errorf("Send took %v and moved %d bytes, Transfer %v and %d", took[0], moved[0], took[1], moved[1])
	}
}

// responderFn adapts a closure to Responder.
type responderFn func(Message)

func (f responderFn) OnResponse(resp Message) { f(resp) }
