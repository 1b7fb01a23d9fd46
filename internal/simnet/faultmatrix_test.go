package simnet

import (
	"testing"

	"github.com/hpcio/das/internal/fault"
	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/sim"
)

// The fault matrix drives every fault check a transfer makes — src down
// at launch, NICFactor(src), DropMessage drop and delay, dst down,
// NICFactor(dst) — through every entry point that starts a transfer. Each
// cell moves matrixMsgs messages of matrixSize bytes from node 0 to node 1
// under one fault and pins the whole simulation: event count, final
// clock, traffic, drop counter, deliveries. The expectations were recorded
// from the process-per-step transfer() this package used to carry (commit
// acc2a8c, classic dispatch); RespondTask rows equal the Respond rows
// because a task calling RespondTask stands in for a handler process
// calling Respond in the same event.

const (
	matrixMsgs = 4
	matrixSize = 1000 // 1 ms per NIC at the matrix network's 1 MB/s
	matrixSrc  = 0
	matrixDst  = 1
)

var matrixFaults = []struct {
	name  string
	apply func(*fault.State)
}{
	{"src-down", func(f *fault.State) { f.SetDown(matrixSrc, true) }},
	{"dst-down", func(f *fault.State) { f.SetDown(matrixDst, true) }},
	{"loss", func(f *fault.State) { f.SetLoss(0.5, 0) }},
	{"loss+delay", func(f *fault.State) { f.SetLoss(0.5, 200*sim.Microsecond) }},
	{"slow-src", func(f *fault.State) { f.SetNICFactor(matrixSrc, 0.25) }},
	{"slow-dst", func(f *fault.State) { f.SetNICFactor(matrixDst, 0.5) }},
}

// matrixOut is everything a cell pins.
type matrixOut struct {
	events    uint64
	now       sim.Time
	bytes     int64 // ClientToServer bytes: the src→dst payload class
	dropped   int64
	delivered int  // messages that reached the destination mailbox
	completed int  // operations that returned to their caller (or fired)
	deadlock  bool // Run reported blocked processes (a lost Call)
}

// taskFn adapts a closure to sim.Tasker.
type taskFn func()

func (f taskFn) RunTask() { f() }

// matrixOps start the transfers; each returns how to count deliveries and
// a pointer to its completion counter.
var matrixOps = []struct {
	name string
	run  func(eng *sim.Engine, net *Network) (delivered func() int, completed *int)
}{
	{"Send", func(eng *sim.Engine, net *Network) (func() int, *int) {
		done := new(int)
		eng.Spawn("sender", func(p *sim.Proc) {
			for i := 0; i < matrixMsgs; i++ {
				net.Send(p, Message{From: matrixSrc, To: matrixDst, Port: "in", Size: matrixSize, Class: metrics.ClientToServer})
				*done++
			}
		})
		return net.Node(matrixDst).Port("in").Len, done
	}},
	{"SendAsync", func(eng *sim.Engine, net *Network) (func() int, *int) {
		done := new(int)
		eng.Spawn("sender", func(p *sim.Proc) {
			var sigs []*sim.Signal[struct{}]
			for i := 0; i < matrixMsgs; i++ {
				sigs = append(sigs, net.SendAsync(Message{From: matrixSrc, To: matrixDst, Port: "in", Size: matrixSize, Class: metrics.ClientToServer}))
			}
			// The signal fires on a drop too: waiting on all of them must
			// never strand the sender.
			for _, s := range sigs {
				s.Wait(p)
				*done++
			}
		})
		return net.Node(matrixDst).Port("in").Len, done
	}},
	{"Call", func(eng *sim.Engine, net *Network) (func() int, *int) {
		served := matrixEcho(eng, net)
		done := new(int)
		eng.Spawn("caller", func(p *sim.Proc) {
			for i := 0; i < matrixMsgs; i++ {
				net.Call(p, Message{From: matrixSrc, To: matrixDst, Port: "rpc", Size: matrixSize, Class: metrics.ClientToServer})
				*done++
			}
		})
		return func() int { return *served }, done
	}},
	{"CallCancelable", func(eng *sim.Engine, net *Network) (func() int, *int) {
		served := matrixEcho(eng, net)
		done := new(int)
		eng.Spawn("caller", func(p *sim.Proc) {
			for i := 0; i < matrixMsgs; i++ {
				_, ok := net.CallCancelable(p, Message{From: matrixSrc, To: matrixDst, Port: "rpc", Size: matrixSize, Class: metrics.ClientToServer},
					0, 20*sim.Millisecond, nil)
				if ok {
					*done++
				}
			}
		})
		return func() int { return *served }, done
	}},
	{"Respond", func(eng *sim.Engine, net *Network) (func() int, *int) {
		reply := sim.NewMailbox[Message](eng, "reply")
		done := new(int)
		for i := 0; i < matrixMsgs; i++ {
			eng.Spawn("handler", func(p *sim.Proc) {
				net.Respond(p, Message{From: matrixDst, To: matrixSrc, Port: "rpc", Reply: reply}, "resp", matrixSize, metrics.ClientToServer)
				*done++
			})
		}
		return reply.Len, done
	}},
	{"RespondTask", func(eng *sim.Engine, net *Network) (func() int, *int) {
		reply := sim.NewMailbox[Message](eng, "reply")
		done := new(int)
		for i := 0; i < matrixMsgs; i++ {
			eng.ScheduleTask(0, taskFn(func() {
				net.RespondTask(Message{From: matrixDst, To: matrixSrc, Port: "rpc", Reply: reply}, "resp", matrixSize, metrics.ClientToServer)
				*done++
			}))
		}
		return reply.Len, done
	}},
}

// matrixEcho serves the "rpc" port on the destination node with a small
// response and counts the requests that arrived.
func matrixEcho(eng *sim.Engine, net *Network) *int {
	served := new(int)
	eng.SpawnDaemon("echo", func(p *sim.Proc) {
		port := net.Node(matrixDst).Port("rpc")
		for {
			req := port.Get(p)
			*served++
			net.Respond(p, req, "ok", 100, metrics.ServerToClient)
		}
	})
	return served
}

func runMatrixCell(t *testing.T, fi, oi int) matrixOut {
	t.Helper()
	eng := sim.NewEngine()
	traffic := metrics.NewTraffic()
	net := New(eng, Config{BytesPerSec: 1e6, Latency: 50 * sim.Microsecond}, traffic)
	net.AddNode(matrixSrc)
	net.AddNode(matrixDst)
	reg := metrics.NewRegistry()
	f := fault.NewState(7, reg)
	matrixFaults[fi].apply(f)
	net.SetFaults(f)
	delivered, completed := matrixOps[oi].run(eng, net)
	err := eng.Run()
	out := matrixOut{
		events:    eng.Events(),
		now:       eng.Now(),
		bytes:     traffic.Bytes(metrics.ClientToServer),
		dropped:   reg.Get("recovery.dropped_messages"),
		delivered: delivered(),
		completed: *completed,
		deadlock:  err != nil,
	}
	eng.Shutdown()
	return out
}

// matrixWant[fault][op], in matrixFaults × matrixOps order.
var matrixWant = [][]matrixOut{
	{ // src-down
		{events: 1, now: 0, bytes: 0, dropped: 4, delivered: 0, completed: 4, deadlock: false},         // Send
		{events: 6, now: 0, bytes: 0, dropped: 4, delivered: 0, completed: 4, deadlock: false},         // SendAsync
		{events: 2, now: 0, bytes: 0, dropped: 1, delivered: 0, completed: 0, deadlock: true},          // Call
		{events: 10, now: 80000000, bytes: 0, dropped: 4, delivered: 0, completed: 0, deadlock: false}, // CallCancelable
		{events: 4, now: 0, bytes: 0, dropped: 4, delivered: 0, completed: 4, deadlock: false},         // Respond
		{events: 4, now: 0, bytes: 0, dropped: 4, delivered: 0, completed: 4, deadlock: false},         // RespondTask
	},
	{ // dst-down
		{events: 9, now: 4200000, bytes: 0, dropped: 4, delivered: 0, completed: 4, deadlock: false},   // Send
		{events: 20, now: 4050000, bytes: 0, dropped: 4, delivered: 0, completed: 4, deadlock: false},  // SendAsync
		{events: 4, now: 1050000, bytes: 0, dropped: 1, delivered: 0, completed: 0, deadlock: true},    // Call
		{events: 18, now: 84200000, bytes: 0, dropped: 4, delivered: 0, completed: 0, deadlock: false}, // CallCancelable
		{events: 15, now: 4050000, bytes: 0, dropped: 4, delivered: 0, completed: 4, deadlock: false},  // Respond
		{events: 15, now: 4050000, bytes: 0, dropped: 4, delivered: 0, completed: 4, deadlock: false},  // RespondTask
	},
	{ // loss
		{events: 11, now: 6200000, bytes: 2000, dropped: 2, delivered: 2, completed: 4, deadlock: false},  // Send
		{events: 21, now: 5050000, bytes: 2000, dropped: 2, delivered: 2, completed: 4, deadlock: false},  // SendAsync
		{events: 8, now: 2200000, bytes: 1000, dropped: 1, delivered: 1, completed: 0, deadlock: true},    // Call
		{events: 26, now: 66450000, bytes: 2000, dropped: 3, delivered: 2, completed: 1, deadlock: false}, // CallCancelable
		{events: 17, now: 5050000, bytes: 2000, dropped: 2, delivered: 2, completed: 4, deadlock: false},  // Respond
		{events: 17, now: 5050000, bytes: 2000, dropped: 2, delivered: 2, completed: 4, deadlock: false},  // RespondTask
	},
	{ // loss+delay
		{events: 15, now: 8600000, bytes: 4000, dropped: 0, delivered: 4, completed: 4, deadlock: false},  // Send
		{events: 27, now: 5250000, bytes: 4000, dropped: 0, delivered: 4, completed: 4, deadlock: false},  // SendAsync
		{events: 39, now: 10200000, bytes: 4000, dropped: 0, delivered: 4, completed: 4, deadlock: false}, // Call
		{events: 39, now: 10200000, bytes: 4000, dropped: 0, delivered: 4, completed: 4, deadlock: false}, // CallCancelable
		{events: 22, now: 5250000, bytes: 4000, dropped: 0, delivered: 4, completed: 4, deadlock: false},  // Respond
		{events: 22, now: 5250000, bytes: 4000, dropped: 0, delivered: 4, completed: 4, deadlock: false},  // RespondTask
	},
	{ // slow-src
		{events: 13, now: 20200000, bytes: 4000, dropped: 0, delivered: 4, completed: 4, deadlock: false}, // Send
		{events: 24, now: 17050000, bytes: 4000, dropped: 0, delivered: 4, completed: 4, deadlock: false}, // SendAsync
		{events: 34, now: 22400000, bytes: 4000, dropped: 0, delivered: 4, completed: 4, deadlock: false}, // Call
		{events: 34, now: 22400000, bytes: 4000, dropped: 0, delivered: 4, completed: 4, deadlock: false}, // CallCancelable
		{events: 19, now: 17050000, bytes: 4000, dropped: 0, delivered: 4, completed: 4, deadlock: false}, // Respond
		{events: 19, now: 17050000, bytes: 4000, dropped: 0, delivered: 4, completed: 4, deadlock: false}, // RespondTask
	},
	{ // slow-dst
		{events: 13, now: 12200000, bytes: 4000, dropped: 0, delivered: 4, completed: 4, deadlock: false}, // Send
		{events: 27, now: 9050000, bytes: 4000, dropped: 0, delivered: 4, completed: 4, deadlock: false},  // SendAsync
		{events: 34, now: 13600000, bytes: 4000, dropped: 0, delivered: 4, completed: 4, deadlock: false}, // Call
		{events: 34, now: 13600000, bytes: 4000, dropped: 0, delivered: 4, completed: 4, deadlock: false}, // CallCancelable
		{events: 22, now: 9050000, bytes: 4000, dropped: 0, delivered: 4, completed: 4, deadlock: false},  // Respond
		{events: 22, now: 9050000, bytes: 4000, dropped: 0, delivered: 4, completed: 4, deadlock: false},  // RespondTask
	},
}

func TestFaultMatrix(t *testing.T) {
	for fi, f := range matrixFaults {
		for oi, op := range matrixOps {
			got := runMatrixCell(t, fi, oi)
			if fi >= len(matrixWant) || oi >= len(matrixWant[fi]) {
				t.Errorf("%s/%s: unrecorded: %+v", f.name, op.name, got)
				continue
			}
			if want := matrixWant[fi][oi]; got != want {
				t.Errorf("%s/%s:\n got  %+v\n want %+v", f.name, op.name, got, want)
			}
		}
	}
}
