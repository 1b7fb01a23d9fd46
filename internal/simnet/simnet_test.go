package simnet

import (
	"fmt"
	"testing"
	"testing/quick"

	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/sim"
)

func newNet(t *testing.T, nodes int, bw float64, lat sim.Time) (*sim.Engine, *Network) {
	t.Helper()
	eng := sim.NewEngine()
	net := New(eng, Config{BytesPerSec: bw, Latency: lat}, nil)
	for i := 0; i < nodes; i++ {
		net.AddNode(i)
	}
	return eng, net
}

func TestSendTimingStoreAndForward(t *testing.T) {
	// 1 MB at 1 MB/s per NIC: 1s egress + 1ms latency + 1s ingress.
	eng, net := newNet(t, 2, 1e6, sim.Millisecond)
	var arrived sim.Time
	eng.Spawn("sender", func(p *sim.Proc) {
		net.Send(p, Message{From: 0, To: 1, Port: "data", Size: 1e6, Class: metrics.ClientToServer})
		arrived = p.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := 2*sim.Second + sim.Millisecond
	if arrived != want {
		t.Errorf("delivery at %v, want %v", arrived, want)
	}
}

func TestLoopbackIsFree(t *testing.T) {
	eng, net := newNet(t, 1, 1e6, sim.Millisecond)
	eng.Spawn("sender", func(p *sim.Proc) {
		net.Send(p, Message{From: 0, To: 0, Port: "data", Size: 1 << 30, Class: metrics.ServerToServer})
		if p.Now() != 0 {
			t.Errorf("loopback took %v, want 0", p.Now())
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if net.Traffic().NetworkBytes() != 0 {
		t.Errorf("loopback counted as network traffic: %v", net.Traffic())
	}
}

func TestNICContentionSerializesSenders(t *testing.T) {
	// Two senders pushing 1MB each through the same destination ingress:
	// egress NICs differ, so serialization happens at the receiver.
	eng, net := newNet(t, 3, 1e6, 0)
	for i := 0; i < 2; i++ {
		i := i
		eng.Spawn(fmt.Sprintf("s%d", i), func(p *sim.Proc) {
			net.Send(p, Message{From: i, To: 2, Port: "data", Size: 1e6, Class: metrics.ClientToServer})
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// First sender: 1s egress + 1s ingress = 2s. Second: its 1s egress
	// overlaps, then queues behind the first on node 2's ingress: 3s total.
	if eng.Now() != 3*sim.Second {
		t.Errorf("clock %v, want 3s (ingress contention)", eng.Now())
	}
}

func TestTrafficAccounting(t *testing.T) {
	eng, net := newNet(t, 2, 1e9, 0)
	eng.Spawn("s", func(p *sim.Proc) {
		net.Send(p, Message{From: 0, To: 1, Port: "a", Size: 100, Class: metrics.ClientToServer})
		net.Send(p, Message{From: 1, To: 0, Port: "b", Size: 200, Class: metrics.ServerToClient})
		net.Send(p, Message{From: 0, To: 1, Port: "c", Size: 300, Class: metrics.ServerToServer})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	tr := net.Traffic()
	if tr.Bytes(metrics.ClientToServer) != 100 ||
		tr.Bytes(metrics.ServerToClient) != 200 ||
		tr.Bytes(metrics.ServerToServer) != 300 {
		t.Errorf("traffic %v", tr)
	}
}

func TestPortDelivery(t *testing.T) {
	eng, net := newNet(t, 2, 1e9, 0)
	var got string
	eng.Spawn("server", func(p *sim.Proc) {
		msg := net.Node(1).Port("pfs").Get(p)
		got = msg.Payload.(string)
	})
	eng.Spawn("client", func(p *sim.Proc) {
		net.Send(p, Message{From: 0, To: 1, Port: "pfs", Size: 10, Payload: "read strip 3"})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "read strip 3" {
		t.Errorf("payload %q", got)
	}
}

func TestCallRespondRoundTrip(t *testing.T) {
	eng, net := newNet(t, 2, 1e6, sim.Millisecond)
	eng.Spawn("server", func(p *sim.Proc) {
		req := net.Node(1).Port("rpc").Get(p)
		net.Respond(p, req, "pong", 1e6, metrics.ServerToClient)
	})
	var resp Message
	var rtt sim.Time
	eng.Spawn("client", func(p *sim.Proc) {
		resp = net.Call(p, Message{From: 0, To: 1, Port: "rpc", Size: 1e6, Payload: "ping", Class: metrics.ClientToServer})
		rtt = p.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if resp.Payload.(string) != "pong" {
		t.Errorf("response %v", resp.Payload)
	}
	want := 2*(2*sim.Second+sim.Millisecond) + 0 // two 1MB store-and-forward legs
	if rtt != want {
		t.Errorf("rtt %v, want %v", rtt, want)
	}
	if resp.From != 1 || resp.To != 0 {
		t.Errorf("response addressing %d→%d, want 1→0", resp.From, resp.To)
	}
}

func TestSendAsyncOverlaps(t *testing.T) {
	eng, net := newNet(t, 3, 1e6, 0)
	eng.Spawn("client", func(p *sim.Proc) {
		// Two async 1MB sends to different destinations share the sender's
		// egress (serialized: 2s) but their ingress legs overlap.
		d1 := net.SendAsync(Message{From: 0, To: 1, Port: "a", Size: 1e6})
		d2 := net.SendAsync(Message{From: 0, To: 2, Port: "a", Size: 1e6})
		d1.Wait(p)
		d2.Wait(p)
		if p.Now() != 3*sim.Second {
			t.Errorf("both delivered at %v, want 3s (egress serialized, ingress overlapped)", p.Now())
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRespondWithoutReplyPanics(t *testing.T) {
	eng, net := newNet(t, 2, 1e9, 0)
	eng.Spawn("server", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic responding without Reply")
			}
		}()
		net.Respond(p, Message{From: 0, To: 1}, nil, 0, metrics.ServerToClient)
	})
	_ = eng.Run()
}

func TestDuplicateNodePanics(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, Config{BytesPerSec: 1}, nil)
	net.AddNode(0)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate node")
		}
	}()
	net.AddNode(0)
}

func TestUnknownNodePanics(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, Config{BytesPerSec: 1}, nil)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on unknown node")
		}
	}()
	net.Node(42)
}

// Property: over any batch of random messages, the traffic collector's
// network total equals the sum of remote message sizes exactly — nothing
// double-counted, loopbacks free.
func TestTrafficConservationProperty(t *testing.T) {
	type msg struct {
		From, To uint8
		Size     uint16
	}
	prop := func(msgs []msg) bool {
		if len(msgs) > 40 {
			msgs = msgs[:40]
		}
		eng, net := newNet(t, 4, 1e9, 0)
		var want int64
		eng.Spawn("sender", func(p *sim.Proc) {
			for i, m := range msgs {
				from, to := int(m.From%4), int(m.To%4)
				size := int64(m.Size)
				if from != to {
					want += size
				}
				net.Send(p, Message{
					From: from, To: to, Port: "x", Size: size,
					Class: metrics.TrafficClass(i % 3), // the three network classes
				})
			}
		})
		if err := eng.Run(); err != nil {
			return false
		}
		return net.Traffic().NetworkBytes() == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNICBusyAccounting(t *testing.T) {
	eng, net := newNet(t, 2, 1e6, 0)
	eng.Spawn("s", func(p *sim.Proc) {
		net.Send(p, Message{From: 0, To: 1, Port: "x", Size: 5e5})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := net.Node(0).EgressBusy(); got != 500*sim.Millisecond {
		t.Errorf("egress busy %v, want 500ms", got)
	}
	if got := net.Node(1).IngressBusy(); got != 500*sim.Millisecond {
		t.Errorf("ingress busy %v, want 500ms", got)
	}
}
