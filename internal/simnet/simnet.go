// Package simnet models the cluster interconnect for the DAS simulator.
//
// Each node has an egress and an ingress NIC, modeled as exclusive
// sim.Resources: a transfer of size S over a NIC sustaining B bytes/sec
// occupies that NIC for S/B. A message therefore costs
//
//	egress(serialize) → wire latency → ingress(serialize)
//
// in store-and-forward fashion, and concurrent transfers through the same
// node queue up on its NICs. This is the contention the paper's Normal
// Active Storage suffers from: a storage server that both computes and
// serves dependent strips to its neighbors saturates its own NICs.
//
// Loopback messages (From == To) are free: data that stays on a node does
// not cross the interconnect, which is exactly the saving DAS engineers
// for with its dependence-aware layout.
//
// Every transfer runs as an inline task chain (xfer.go) rather than
// blocking its sender through five parks; the chain is also where injected
// faults — crashed endpoints, degraded NICs, lost or late messages — act.
package simnet

import (
	"fmt"

	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/sim"
)

// Message is one unit of traffic between nodes. Payload carries the
// protocol-level request or response defined by higher layers; Size is the
// simulated wire size in bytes, which need not match the in-memory size of
// Payload (e.g. a read request is a few bytes even though its response is
// a strip).
type Message struct {
	From, To int
	Port     string
	Size     int64
	Class    metrics.TrafficClass
	Payload  any
	// Reply, when non-nil, is where the recipient should deliver its
	// response via Network.Respond. Reply mailboxes bypass port lookup so
	// each in-flight request gets a private response channel.
	Reply *sim.Mailbox[Message]
}

// Config sets the interconnect parameters.
type Config struct {
	// BytesPerSec is the per-NIC, per-direction bandwidth.
	BytesPerSec float64
	// Latency is the one-way wire latency added to every remote message.
	Latency sim.Time
}

// FaultPolicy is the hook through which an injected fault layer perturbs
// delivery. The network consults it on every remote transfer once Active
// reports true; implementations must be cheap and engine-goroutine-safe.
type FaultPolicy interface {
	// Active reports whether any fault has ever been applied. A transfer
	// that launches while it returns false consults nothing else.
	Active() bool
	// Down reports whether a node is crashed. Messages from or to a down
	// node are lost.
	Down(node int) bool
	// NICFactor scales a node's NIC bandwidth (1 = healthy).
	NICFactor(node int) float64
	// DropMessage decides whether one remote message is dropped, or
	// delivered late by the returned extra delay.
	DropMessage(from, to int) (drop bool, delay sim.Time)
	// NoteDropped records a message lost to a fault.
	NoteDropped(from, to int)
}

// Network is the interconnect connecting a fixed set of nodes.
type Network struct {
	eng     *sim.Engine
	cfg     Config
	traffic *metrics.Traffic
	faults  FaultPolicy

	// nodes is dense, indexed by node id: cluster ids are small contiguous
	// integers, and a slice index beats a map lookup on every Send.
	nodes []*Node

	// portNames interns port names to small integers so per-node port
	// tables are dense slices too. Clusters use a handful of distinct
	// ports, so the linear scan is effectively free. portSufs holds the
	// precomputed ":<name>" suffix for lazy mailbox naming.
	portNames []string
	portSufs  []string

	// replyFree recycles the private reply mailboxes Call creates, one per
	// in-flight request. A mailbox returns to the list once its single
	// response has been consumed, so request/response traffic allocates no
	// mailboxes at steady state.
	replyFree []*sim.Mailbox[Message]

	// xferFree recycles transfer chains (xfer.go).
	xferFree []*xfer
	// callFree recycles CallTask bridges (xfer.go).
	callFree []*callTask

	// The reply ledger: requests carrying a Reply mailbox that reached a
	// port, and Respond/RespondTask calls. At quiescence the two are equal
	// exactly when every delivered request was answered once (CheckReplies).
	delivered, answered uint64
}

// Node is one endpoint on the network.
type Node struct {
	id      int
	egress  *sim.Resource
	ingress *sim.Resource
	ports   []*sim.Mailbox[Message] // dense, indexed by interned port index
	net     *Network
}

// New creates a network with the given parameters. Traffic may be nil, in
// which case a private collector is created.
func New(eng *sim.Engine, cfg Config, traffic *metrics.Traffic) *Network {
	if traffic == nil {
		traffic = metrics.NewTraffic()
	}
	return &Network{eng: eng, cfg: cfg, traffic: traffic}
}

// Traffic returns the collector recording this network's byte counts.
func (n *Network) Traffic() *metrics.Traffic { return n.traffic }

// SetFaults installs the fault layer the network consults on every remote
// transfer. Pass nil to remove it.
func (n *Network) SetFaults(f FaultPolicy) { n.faults = f }

// Config returns the interconnect parameters.
func (n *Network) Config() Config { return n.cfg }

// Replies returns the reply ledger: how many requests carrying a Reply
// mailbox have reached their destination port, and how many responses
// have been sent. A request a fault lost on the way is never delivered; a
// response counts as answered when it is sent, whether or not the wire
// then loses it.
func (n *Network) Replies() (delivered, answered uint64) { return n.delivered, n.answered }

// CheckReplies reports a reply owed but never sent, or sent twice, and a
// message nobody read: at quiescence, when no handler is still working,
// every delivered request must have been answered exactly once and every
// port must be empty. A handler that drops its reply parks its caller
// forever, and a message sent to a port nobody reads stays queued, which
// no other check sees.
func (n *Network) CheckReplies() error {
	if n.delivered != n.answered {
		return fmt.Errorf("simnet: %d requests delivered, %d answered", n.delivered, n.answered)
	}
	for _, nd := range n.nodes {
		if nd == nil {
			continue
		}
		for i, mb := range nd.ports {
			if mb != nil && mb.Len() > 0 {
				return fmt.Errorf("simnet: node %d port %q holds %d unread messages", nd.id, n.portNames[i], mb.Len())
			}
		}
	}
	return nil
}

// deliver puts msg into a destination mailbox, counting it on the reply
// ledger when it is a request that owes a response.
func (n *Network) deliver(mb *sim.Mailbox[Message], msg Message) {
	if msg.Reply != nil {
		n.delivered++
	}
	mb.Put(msg)
}

// AddNode registers a node id and returns its endpoint. Adding the same id
// twice panics: node identity is structural in the simulator.
func (n *Network) AddNode(id int) *Node {
	if id < 0 {
		panic(fmt.Sprintf("simnet: negative node id %d", id))
	}
	for len(n.nodes) <= id {
		n.nodes = append(n.nodes, nil)
	}
	if n.nodes[id] != nil {
		panic(fmt.Sprintf("simnet: duplicate node id %d", id))
	}
	node := &Node{
		id:      id,
		egress:  sim.NewResourceIndexed(n.eng, "node", id, ".egress", 1),
		ingress: sim.NewResourceIndexed(n.eng, "node", id, ".ingress", 1),
		net:     n,
	}
	n.nodes[id] = node
	return node
}

// Node returns the endpoint for id, panicking if it was never added.
func (n *Network) Node(id int) *Node {
	if id < 0 || id >= len(n.nodes) || n.nodes[id] == nil {
		panic(fmt.Sprintf("simnet: unknown node id %d", id))
	}
	return n.nodes[id]
}

// portIndex interns a port name, assigning the next index on first sight.
func (n *Network) portIndex(name string) int {
	for i, s := range n.portNames {
		if s == name {
			return i
		}
	}
	n.portNames = append(n.portNames, name)
	n.portSufs = append(n.portSufs, ":"+name)
	return len(n.portNames) - 1
}

// ID returns the node's identifier.
func (nd *Node) ID() int { return nd.id }

// Port returns the named mailbox on this node, creating it on first use.
// Servers Get from (or install a dispatcher on) their ports; the network
// Puts delivered messages.
func (nd *Node) Port(name string) *sim.Mailbox[Message] {
	idx := nd.net.portIndex(name)
	for len(nd.ports) <= idx {
		nd.ports = append(nd.ports, nil)
	}
	mb := nd.ports[idx]
	if mb == nil {
		mb = sim.NewMailboxIndexed[Message](nd.net.eng, "node", nd.id, nd.net.portSufs[idx])
		nd.ports[idx] = mb
	}
	return mb
}

// EgressBusy returns how long this node's egress NIC has been occupied.
func (nd *Node) EgressBusy() sim.Time { return nd.egress.BusyTime() }

// IngressBusy returns how long this node's ingress NIC has been occupied.
func (nd *Node) IngressBusy() sim.Time { return nd.ingress.BusyTime() }

// Send moves msg from msg.From to msg.To, blocking p for the transfer
// time, then delivers it to the destination port. The sending process
// models the full store-and-forward pipeline, so back-to-back Sends from
// one process are serialized, as they would be through one socket. A
// message lost to an injected fault simply never arrives; senders that
// need delivery confirmation use Call with a timeout.
func (n *Network) Send(p *sim.Proc, msg Message) {
	src, dst := n.Node(msg.From), n.Node(msg.To)
	if src == dst || n.moveSync(p, "send", src, dst, msg.Size, msg.Class) {
		n.deliver(dst.Port(msg.Port), msg)
	}
}

// Transfer moves size bytes from node from to node to as Send moves a
// message — the same NIC occupancy, wire time, faults and traffic — and
// delivers nothing: it charges a transfer whose bytes the receiver takes
// some other way. Loopback is free.
func (n *Network) Transfer(p *sim.Proc, from, to int, size int64, class metrics.TrafficClass) {
	if src, dst := n.Node(from), n.Node(to); src != dst {
		n.moveSync(p, "send", src, dst, size, class)
	}
}

// SendAsync starts the transfer in the background — it begins at a fresh
// event after the caller's current one — and returns a signal that fires
// once the send is over: after delivery, or at the point a fault lost the
// message. Use it to overlap independent transfers, e.g. a PFS client
// striping a file across many servers. It blocks nothing, so processes
// and tasks alike may call it.
func (n *Network) SendAsync(msg Message) *sim.Signal[struct{}] {
	// Static diagnostic names: this runs once per message, and per-message
	// formatted names were a dominant allocation source in read-heavy runs.
	done := sim.NewSignal[struct{}](n.eng, "send")
	src, dst := n.Node(msg.From), n.Node(msg.To)
	x := n.newAsync(src, dst, msg.Size, msg.Class, dst.Port(msg.Port), msg)
	x.done = done
	// Unlike startAsync the chain begins at a zero-delay task event, where
	// loopback is resolved too.
	x.state = xsStart
	n.eng.ScheduleTask(0, x)
	return done
}

// Call sends a request and blocks until the recipient Responds. The
// returned message is the response. The request's Reply mailbox is created
// here and is private to this call. Call has no timeout: if a fault loses
// the request or the response, p stays parked (use CallCancelable).
func (n *Network) Call(p *sim.Proc, msg Message) Message {
	reply := n.acquireReply()
	msg.Reply = reply
	// Fused call: register for the reply up front, run the request
	// transfer as a task chain ending in port delivery, and park once for
	// the whole RPC.
	src, dst := n.Node(msg.From), n.Node(msg.To)
	pd := reply.Reserve(p)
	if src == dst {
		n.deliver(dst.Port(msg.Port), msg)
	} else {
		n.startAsync(src, dst, msg.Size, msg.Class, dst.Port(msg.Port), msg)
	}
	p.Park("call", reply)
	resp := pd.Redeem()
	// The protocol delivers exactly one response per request, so the
	// mailbox is empty again and can serve the next Call.
	n.replyFree = append(n.replyFree, reply)
	return resp
}

// CallCancelable sends a request and waits for the response, giving up
// when deadline elapses (if deadline > 0) or when abort reports true —
// checked every quantum of simulated time. It returns ok=false on
// give-up. An abandoned reply mailbox is reclaimed when (and only when)
// the late response finally arrives: the response is dropped unobserved —
// never double-delivered into a later call — and the mailbox rejoins the
// pool.
//
// With quantum and deadline both zero and a nil abort it degenerates to
// Call.
func (n *Network) CallCancelable(p *sim.Proc, msg Message, quantum, deadline sim.Time, abort func() bool) (Message, bool) {
	reply := n.acquireReply()
	msg.Reply = reply
	n.Send(p, msg)
	start := p.Now()
	for {
		wait := quantum
		if deadline > 0 {
			remain := deadline - (p.Now() - start)
			if remain <= 0 {
				n.abandonReply(reply)
				return Message{}, false
			}
			if wait <= 0 || remain < wait {
				wait = remain
			}
		} else if wait <= 0 {
			resp := reply.Get(p)
			n.replyFree = append(n.replyFree, reply)
			return resp, true
		}
		if resp, ok := reply.GetTimeout(p, wait); ok {
			n.replyFree = append(n.replyFree, reply)
			return resp, true
		}
		if abort != nil && abort() {
			n.abandonReply(reply)
			return Message{}, false
		}
	}
}

func (n *Network) acquireReply() *sim.Mailbox[Message] {
	if k := len(n.replyFree); k > 0 {
		reply := n.replyFree[k-1]
		n.replyFree[k-1] = nil
		n.replyFree = n.replyFree[:k-1]
		return reply
	}
	return sim.NewMailbox[Message](n.eng, "reply")
}

// abandonReply arranges for a given-up call's reply mailbox to rejoin the
// pool when its late response lands (or immediately, if the response beat
// the give-up). Without this, every canceled call leaked its mailbox.
func (n *Network) abandonReply(reply *sim.Mailbox[Message]) {
	reply.Abandon(func() {
		n.replyFree = append(n.replyFree, reply)
	})
}

// Respond delivers a response to the Reply mailbox of req, charging the
// wire cost of moving size bytes from the responder back to the
// requester. It must be called by the process handling req. Responses
// from or to a crashed node are lost like any other message.
func (n *Network) Respond(p *sim.Proc, req Message, payload any, size int64, class metrics.TrafficClass) {
	if req.Reply == nil {
		panic("simnet: Respond to a message without a Reply mailbox")
	}
	n.answered++
	src, dst := n.Node(req.To), n.Node(req.From)
	resp := Message{
		From:    req.To,
		To:      req.From,
		Port:    req.Port,
		Size:    size,
		Class:   class,
		Payload: payload,
	}
	if src == dst {
		req.Reply.Put(resp)
		return
	}
	if n.moveSync(p, "respond", src, dst, size, class) {
		req.Reply.Put(resp)
	}
}

// RespondTask is Respond for request handlers running as task chains: it
// starts the response transfer without a process to block, delivering to
// the Reply mailbox from the chain's final task.
func (n *Network) RespondTask(req Message, payload any, size int64, class metrics.TrafficClass) {
	if req.Reply == nil {
		panic("simnet: Respond to a message without a Reply mailbox")
	}
	n.answered++
	src, dst := n.Node(req.To), n.Node(req.From)
	resp := Message{
		From:    req.To,
		To:      req.From,
		Port:    req.Port,
		Size:    size,
		Class:   class,
		Payload: payload,
	}
	if src == dst {
		req.Reply.Put(resp)
		return
	}
	n.startAsync(src, dst, size, class, req.Reply, resp)
}
