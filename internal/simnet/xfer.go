package simnet

import (
	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/sim"
)

// This file is the store-and-forward transfer: a pooled task chain that
// walks egress → latency → ingress as inline engine events. It is the only
// construction — every entry point (Send, SendAsync, Call, Respond,
// RespondTask, CallTask) moves its bytes through one, fault plan or not.
//
// A chain schedules one event per step a process blocking its way through
// the pipeline would wake for:
//
//	egress.AcquireTask queues x; Release schedules x's grant task
//	ScheduleTask(exDur) after grant
//	task: egress.Release, ScheduleTask(latency)
//	task: fault checks, [ScheduleTask(delay)], ingress.AcquireTask
//	sync:  ResumeIn(ixDur, caller)      async: ScheduleTask(ixDur)
//	sync:  caller's post-Park epilogue  async: final task — release,
//	                                           account, deliver
//
// Sync chains (Send, Respond) carry a parked process and end by resuming
// it; async chains (SendAsync, Call and CallTask request legs,
// RespondTask) end in a task event that delivers.
//
// Once the fault policy is Active at launch, five checks apply, in this
// order so the loss RNG draws in a fixed sequence: at launch, a down
// source loses the message before it touches the wire, and
// NICFactor(src) scales the egress time; after the wire latency,
// DropMessage loses or delays it, then a down destination loses it, then
// NICFactor(dst) — sampled there, not at launch — scales the ingress
// time. A chain launched before activation finishes fault-free.
type xfer struct {
	net      *Network
	state    int
	src, dst *Node
	size     int64
	class    metrics.TrafficClass
	exDur    sim.Time // egress serialization time
	ixDur    sim.Time // ingress serialization time

	// faults is the policy the in-flight checks consult: set at launch iff
	// it was Active then, nil otherwise.
	faults FaultPolicy

	// Completion: exactly one of resume (sync) or deliver (async) is set.
	resume  *sim.Proc
	dropped bool // sync only: tells the resumed caller the message was lost
	deliver *sim.Mailbox[Message]
	msg     Message
	done    *sim.Signal[struct{}] // optional, fired after async delivery or loss
}

// Chain states, named for what RunTask does when dispatched in that state.
const (
	xsStart         = iota // SendAsync's deferred start: begin the chain
	xsEgressGranted        // egress units held: schedule serialization
	xsEgressDone           // serialization over: release egress, fly the wire
	xsLatencyDone          // crossed the wire: loss/delay verdict
	xsDelayDone            // injected delay over: arrive
	xsIngressGrant         // ingress held: schedule final serialization
	xsFinal                // async epilogue: release, account, deliver
)

func (x *xfer) RunTask() {
	switch x.state {
	case xsStart:
		if x.src == x.dst {
			// Loopback is free and infallible, resolved in the one start
			// event.
			x.complete()
			return
		}
		if !x.launch() {
			x.lost()
		}
	case xsEgressGranted:
		x.state = xsEgressDone
		x.net.eng.ScheduleTask(x.exDur, x)
	case xsEgressDone:
		x.src.egress.Release(1)
		x.state = xsLatencyDone
		x.net.eng.ScheduleTask(x.net.cfg.Latency, x)
	case xsLatencyDone:
		if f := x.faults; f != nil {
			drop, delay := f.DropMessage(x.src.id, x.dst.id)
			if drop {
				x.drop()
				return
			}
			if delay > 0 {
				x.state = xsDelayDone
				x.net.eng.ScheduleTask(delay, x)
				return
			}
		}
		x.arrive()
	case xsDelayDone:
		x.arrive()
	case xsIngressGrant:
		if p := x.resume; p != nil {
			// Sync chain: hand the final serialization wait back to the
			// caller as its one resume; it runs the epilogue itself.
			x.net.eng.ResumeIn(x.ixDur, p)
			return
		}
		x.state = xsFinal
		x.net.eng.ScheduleTask(x.ixDur, x)
	case xsFinal:
		x.dst.ingress.Release(1)
		x.net.traffic.Add(x.class, x.size)
		x.complete()
	}
}

// launch samples the fault policy and contends for the egress NIC,
// continuing inline on an immediate grant. It reports false — having
// counted the loss — when the source node is down: whatever a crashed
// node's frozen processes were emitting never reaches the wire. Remote
// chains only; loopback never reaches here.
func (x *xfer) launch() bool {
	n := x.net
	bw := n.cfg.BytesPerSec
	if f := n.faults; f != nil && f.Active() {
		if f.Down(x.src.id) {
			f.NoteDropped(x.src.id, x.dst.id)
			return false
		}
		x.faults = f
		bw *= f.NICFactor(x.src.id)
	}
	x.exDur = sim.TransferTime(x.size, bw)
	x.ixDur = x.exDur // healthy default; arrive re-samples under faults
	x.state = xsEgressGranted
	if x.src.egress.AcquireTask(1, x) {
		x.RunTask()
	}
	return true
}

// arrive is the destination side: the bytes crossed the wire, and unless
// the destination crashed meanwhile they contend for its ingress NIC.
func (x *xfer) arrive() {
	if f := x.faults; f != nil {
		if f.Down(x.dst.id) {
			x.drop()
			return
		}
		x.ixDur = sim.TransferTime(x.size, x.net.cfg.BytesPerSec*f.NICFactor(x.dst.id))
	}
	x.state = xsIngressGrant
	if x.dst.ingress.AcquireTask(1, x) {
		x.RunTask()
	}
}

// drop ends a chain whose message a fault lost in flight. A sync chain's
// caller is parked on it with no resume pending, so the chain hands the
// caller its stack back inside this event — where a process walking the
// pipeline itself would have seen the loss and carried on.
func (x *xfer) drop() {
	x.faults.NoteDropped(x.src.id, x.dst.id)
	if p := x.resume; p != nil {
		x.dropped = true
		x.net.eng.ResumeNow(p) // the caller pools x
		return
	}
	x.lost()
}

// lost retires an async chain that delivers nothing. SendAsync's signal
// still fires: it reports the send finished, not that it arrived.
func (x *xfer) lost() {
	done := x.done
	x.net.xferPut(x)
	if done != nil {
		done.Fire(struct{}{})
	}
}

// complete delivers the payload, fires the optional signal, and returns
// the chain to the pool.
func (x *xfer) complete() {
	n, deliver, msg, done := x.net, x.deliver, x.msg, x.done
	n.xferPut(x)
	n.deliver(deliver, msg)
	if done != nil {
		done.Fire(struct{}{})
	}
}

// moveSync carries size bytes from src to dst on behalf of p, parking p
// once (under verb, for deadlock reports) for the whole pipeline, and
// reports whether the message survived any injected faults. The chain
// resumes p at the instant the ingress serialization ends; the release,
// the traffic accounting and the caller's delivery all run in that one
// process event. Remote endpoints only.
func (n *Network) moveSync(p *sim.Proc, verb string, src, dst *Node, size int64, class metrics.TrafficClass) bool {
	x := n.xferGet()
	x.src, x.dst, x.size = src, dst, size
	x.resume = p
	if !x.launch() {
		n.xferPut(x)
		return false
	}
	p.Park(verb, nil)
	delivered := !x.dropped
	n.xferPut(x)
	if delivered {
		dst.ingress.Release(1)
		n.traffic.Add(class, size)
	}
	return delivered
}

// newAsync prepares a self-completing chain that Puts msg into deliver
// after the full pipeline.
func (n *Network) newAsync(src, dst *Node, size int64, class metrics.TrafficClass, deliver *sim.Mailbox[Message], msg Message) *xfer {
	x := n.xferGet()
	x.src, x.dst, x.size, x.class = src, dst, size, class
	x.deliver, x.msg = deliver, msg
	return x
}

// startAsync launches an async chain; its first step runs inline in the
// caller's current event.
func (n *Network) startAsync(src, dst *Node, size int64, class metrics.TrafficClass, deliver *sim.Mailbox[Message], msg Message) {
	if x := n.newAsync(src, dst, size, class, deliver, msg); !x.launch() {
		x.lost()
	}
}

// Responder consumes an RPC response delivered by CallTask. An interface
// rather than a func so pooled caller state receives without allocating a
// closure per call.
type Responder interface {
	OnResponse(resp Message)
}

// callTask links one in-flight CallTask's reply mailbox to its Responder:
// when the response lands it re-pools the mailbox and itself, then hands
// the response over. Pooled per network.
type callTask struct {
	net   *Network
	reply *sim.Mailbox[Message]
	r     Responder
}

func (c *callTask) OnDelivery(resp Message) {
	n, reply, r := c.net, c.reply, c.r
	c.reply, c.r = nil, nil
	n.callFree = append(n.callFree, c)
	n.replyFree = append(n.replyFree, reply)
	r.OnResponse(resp)
}

// CallTask is Call for callers that are themselves task chains: the
// request transfer runs as a chain, and r.OnResponse runs inline in the
// event a process caller's reply wake-up would occupy — the whole RPC
// costs zero goroutine switches. Like Call it has no timeout: if a fault
// loses the request or the response, r is never called.
func (n *Network) CallTask(msg Message, r Responder) {
	reply := n.acquireReply()
	msg.Reply = reply
	c := n.callGet()
	c.reply, c.r = reply, r
	reply.Expect(c)
	src, dst := n.Node(msg.From), n.Node(msg.To)
	if src == dst {
		n.deliver(dst.Port(msg.Port), msg)
		return
	}
	n.startAsync(src, dst, msg.Size, msg.Class, dst.Port(msg.Port), msg)
}

func (n *Network) callGet() *callTask {
	if k := len(n.callFree); k > 0 {
		c := n.callFree[k-1]
		n.callFree[k-1] = nil
		n.callFree = n.callFree[:k-1]
		return c
	}
	return &callTask{net: n}
}

func (n *Network) xferGet() *xfer {
	if k := len(n.xferFree); k > 0 {
		x := n.xferFree[k-1]
		n.xferFree[k-1] = nil
		n.xferFree = n.xferFree[:k-1]
		return x
	}
	return &xfer{net: n}
}

// xferPut zeroes the chain (dropping payload references) and pools it.
func (n *Network) xferPut(x *xfer) {
	net := x.net
	*x = xfer{net: net}
	n.xferFree = append(n.xferFree, x)
}
