package pfs

import (
	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/simnet"
)

// This file is the PFS request handler: the port dispatcher and the
// pooled task chain that serves every straight-line request — validate,
// one disk pass, respond — without a process: reads always, writes when
// they forward no foreign replicas, fault plan or not (the faults act in
// the disk model and in the response's transfer chain). The chain
// schedules one event per step a handler process blocking through the same
// work would wake for — start, disk grant, disk completion, then the
// response transfer — which keeps it FIFO-compatible with the requests
// that do get a process (Server.handle): replica-forwarding writes,
// migrations, unknown requests. DESIGN.md §11 traces one read RPC hop by
// hop.

// reqTask chain states, named for what RunTask does when dispatched.
const (
	rsStart       = iota // handler start: validate and contend for the disk
	rsDiskGranted        // drive held: schedule the service time
	rsDiskDone           // service over: release drive, account, respond
)

type reqTask struct {
	s     *Server
	state int
	msg   simnet.Message

	diskDur  sim.Time
	isRead   bool  // which Finish* accounts the disk pass
	diskSize int64 // bytes through the disk; 0 skips the disk entirely

	payload  any   // prepared response
	respSize int64 // wire size of the response
}

func (x *reqTask) RunTask() {
	switch x.state {
	case rsStart:
		x.begin()
	case rsDiskGranted:
		x.state = rsDiskDone
		x.s.fs.clu.Eng.ScheduleTask(x.diskDur, x)
	case rsDiskDone:
		d := x.s.fs.clu.Disk(x.s.nodeID)
		if x.isRead {
			d.FinishRead(x.diskSize)
		} else {
			d.FinishWrite(x.diskSize)
		}
		x.respond()
	}
}

// begin validates the request and prepares the response, then contends
// for the drive. Requests that touch no disk bytes (validation errors,
// empty ranges) respond directly from this event: a zero-size disk pass
// schedules nothing.
func (x *reqTask) begin() {
	s := x.s
	switch req := x.msg.Payload.(type) {
	case *readReq:
		r := s.fs.readRespGet()
		data, total, err := s.viewMany(r.Data, req.File, req.Spans)
		s.fs.readReqPut(req)
		r.Data = data
		if err != nil {
			s.fs.readRespPut(r)
			x.fail(err)
			return
		}
		x.isRead, x.diskSize = true, total
		x.payload, x.respSize = r, HeaderBytes+total
	case *writeReq:
		total, err := s.validateWrite(req.File, req.Strips, req.Data)
		if err == nil {
			for i, strip := range req.Strips {
				s.storePut(req.File, strip, entering(req.Data[i], req.immutable))
			}
		}
		s.fs.writeReqPut(req)
		if err != nil {
			x.fail(err)
			return
		}
		x.isRead, x.diskSize = false, total
		x.payload, x.respSize = ackResp{}, HeaderBytes
	default:
		// The dispatcher only routes the two types above here.
		panic("pfs: ineligible request on the request chain")
	}
	if x.diskSize <= 0 {
		x.respond()
		return
	}
	d := s.fs.clu.Disk(s.nodeID)
	if x.isRead {
		x.diskDur = d.ReadTime(x.diskSize)
	} else {
		x.diskDur = d.WriteTime(x.diskSize)
	}
	x.state = rsDiskGranted
	if d.AcquireTask(x) {
		x.RunTask()
	}
}

func (x *reqTask) fail(err error) {
	x.payload, x.respSize = failResp(err), HeaderBytes
	x.respond()
}

// respond launches the response transfer and pools the chain.
func (x *reqTask) respond() {
	s, msg, payload, size := x.s, x.msg, x.payload, x.respSize
	s.taskPut(x)
	s.fs.clu.Net.RespondTask(msg, payload, size, s.fs.clu.ClassBetween(s.nodeID, msg.From))
}

// dispatch is the port's inline message handler, the service loop's body:
// per message it either schedules a reqTask chain or spawns a handler
// process, whose start event takes the same (at, seq) either way.
func (s *Server) dispatch(msg simnet.Message) {
	s.reqs++
	if s.straightLine(msg.Payload) {
		x := s.taskGet()
		x.msg = msg
		x.state = rsStart
		s.fs.clu.Eng.ScheduleTask(0, x)
		return
	}
	s.fs.clu.Eng.Spawn(s.handlerName(), func(h *sim.Proc) {
		s.handle(h, msg)
	})
}

// straightLine reports whether serving a request is validate → one disk
// pass → respond, with nothing to block on in between, so it can run as a
// task chain.
func (s *Server) straightLine(payload any) bool {
	switch req := payload.(type) {
	case *readReq:
		return true
	case *writeReq:
		if !req.Forward {
			return true
		}
		// A Forward write that owes no strip pushes nothing. Unknown files
		// owe nothing: their writes fail validation before forwarding.
		for _, strip := range req.Strips {
			if s.Owes(req.File, strip) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

func (s *Server) taskGet() *reqTask {
	if k := len(s.taskFree); k > 0 {
		x := s.taskFree[k-1]
		s.taskFree[k-1] = nil
		s.taskFree = s.taskFree[:k-1]
		return x
	}
	return &reqTask{s: s}
}

// taskPut zeroes the chain (dropping payload references) and pools it.
func (s *Server) taskPut(x *reqTask) {
	*x = reqTask{s: s}
	s.taskFree = append(s.taskFree, x)
}
