// Package handlers exercises the replies analyzer: message handlers that
// always reply (clean), reply on some paths only (findings), reply twice
// (finding), and discharge through closures, delegation, and parametric
// helpers exactly the way the pfs/active/pipeline services do.
package handlers

import (
	"example.com/replies/helper"

	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/simnet"
)

// Srv is the fixture's service: just enough to call Network.Respond.
type Srv struct {
	Net *simnet.Network
}

// Clean replies exactly once on its single path.
func (s *Srv) Clean(p *sim.Proc, msg simnet.Message) {
	s.Net.Respond(p, msg, "ok", 1, metrics.ServerToClient)
}

// EarlyReturn drops the reply on its guard path.
func (s *Srv) EarlyReturn(p *sim.Proc, msg simnet.Message, ready bool) {
	if !ready {
		return // want "handler returns without sending a reply on this path"
	}
	s.Net.Respond(p, msg, "ok", 1, metrics.ServerToClient)
}

// Double answers the same request twice on one path.
func (s *Srv) Double(p *sim.Proc, msg simnet.Message) {
	s.Net.Respond(p, msg, "first", 1, metrics.ServerToClient)
	s.Net.Respond(p, msg, "second", 1, metrics.ServerToClient) // want "handler sends a second reply to the same request"
}

// Closures replies through the respond/fail pattern: fail discharges
// because it calls respond, which names the message.
func (s *Srv) Closures(p *sim.Proc, msg simnet.Message, ok bool) {
	respond := func(v any) { s.Net.Respond(p, msg, v, 1, metrics.ServerToClient) }
	fail := func() { respond("err") }
	if ok {
		respond("ok")
		return
	}
	fail()
}

// SwitchGap replies in every case but one; the finding anchors on the
// silent case so a suppression can sit exactly there.
func (s *Srv) SwitchGap(p *sim.Proc, msg simnet.Message) {
	respond := func(v any) { s.Net.Respond(p, msg, v, 1, metrics.ServerToClient) }
	switch msg.Payload.(type) {
	case string:
		respond("text")
	case int: // want "handler replies on some paths only"
		_ = msg.Size
	default:
		respond("other")
	}
}

// PanicTolerated replies on every path that survives: panic ends a path
// without obligation, matching the fast handler's ineligible-request case.
func (s *Srv) PanicTolerated(p *sim.Proc, msg simnet.Message, bad bool) {
	if bad {
		panic("unroutable request")
	}
	s.Net.Respond(p, msg, "ok", 1, metrics.ServerToClient)
}

// Delegate answers by handing the message to an always-replying callee.
func (s *Srv) Delegate(p *sim.Proc, msg simnet.Message) {
	s.reply(p, msg)
}

// CrossDelegate discharges through another package's helper: the callee's
// reply summary crosses the package boundary.
func (s *Srv) CrossDelegate(p *sim.Proc, msg simnet.Message) {
	helper.Ack(s.Net, p, msg)
}

func (s *Srv) reply(p *sim.Proc, msg simnet.Message) {
	s.Net.Respond(p, msg, "ok", 1, metrics.ServerToClient)
}

// DelegateRisky counts as discharged — a sometimes-replying callee's gap
// is the callee's own finding, reported inside risky.
func (s *Srv) DelegateRisky(p *sim.Proc, msg simnet.Message, ok bool) {
	s.risky(p, msg, ok)
}

func (s *Srv) risky(p *sim.Proc, msg simnet.Message, ok bool) {
	if !ok {
		return // want "handler returns without sending a reply on this path"
	}
	s.Net.Respond(p, msg, "ok", 1, metrics.ServerToClient)
}

// run is a parametric helper: it invokes exactly one of its func-typed
// parameters on every path.
func run(respond func(any), fail func(), ok bool) {
	if !ok {
		fail()
		return
	}
	respond("ok")
}

// Parametric discharges through run: both func-valued arguments can
// reply, and run calls exactly one of them.
func (s *Srv) Parametric(p *sim.Proc, msg simnet.Message, ok bool) {
	respond := func(v any) { s.Net.Respond(p, msg, v, 1, metrics.ServerToClient) }
	fail := func() { respond("err") }
	run(respond, fail, ok)
}

// Purge drops the reply deliberately on the stale-incarnation path; the
// suppression sits on the silent return and is therefore not stale.
func (s *Srv) Purge(p *sim.Proc, msg simnet.Message, stale bool) {
	if stale {
		//das:allow replies -- stale incarnation: the requester was purged, a reply would misdeliver
		return
	}
	s.Net.Respond(p, msg, "ok", 1, metrics.ServerToClient)
}

// Fine always replies; its leftover suppression silences nothing and is
// reported as stale.
func (s *Srv) Fine(p *sim.Proc, msg simnet.Message) {
	//das:allow replies -- obsolete exemption // want "stale //das:allow directive"
	s.Net.Respond(p, msg, "ok", 1, metrics.ServerToClient)
}
