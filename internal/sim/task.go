package sim

// This file is task dispatch: events that run inline on the engine
// goroutine instead of resuming a process coroutine.
//
// A process wake-up costs two coroutine switches (engine→process,
// process→engine; coro.go), several times an inline call. Most events in
// an I/O-bound simulation do not need a process stack at all: a NIC
// finishing a timed segment, a resource grant, a mailbox handoff. Such
// steps run as a Tasker callback dispatched inline; a process switch
// happens only where user code must run.
//
// # The event-accounting invariant
//
// A task event advances the clock, increments the event count, and
// participates in foreground accounting exactly like a process event;
// only the dispatch mechanism differs. Task chains (simnet transfers, pfs
// request handlers) schedule one event per step a blocking process would
// wake for, at the same (at, seq). That is what lets process callers and
// task callers queue on one NIC, disk or mailbox in a single FIFO order,
// and it is the schedule the recorded goldens pin (simnet's fault matrix,
// the experiments scale goldens). DESIGN.md §11 walks through one PFS RPC.

// Tasker is an inline event handler. RunTask executes on the engine
// goroutine when the task's event dispatches; it must not block (no
// park-style waits) but may schedule further tasks, resume parked
// processes, fire signals, and put into mailboxes.
type Tasker interface{ RunTask() }

// Named is anything with a lazily formatted diagnostic name. Parked
// processes record the object they block on as a Named so hot paths never
// format a name that only a deadlock report would read.
type Named interface{ Name() string }

// ScheduleTask enqueues t to run after d simulated time (clamped at zero).
// The event counts as foreground work, exactly like a scheduled process
// wake-up: Run keeps dispatching until it fires.
func (e *Engine) ScheduleTask(d Time, t Tasker) {
	if d < 0 {
		d = 0
	}
	e.seq++
	e.fg++
	e.pushEvent(event{at: e.now + d, seq: e.seq, who: t})
}

// ResumeIn schedules a wake-up for p after d simulated time (clamped at
// zero). It is the task-side half of a park/resume pair: a process calls
// Park after arranging — via a task chain — for exactly one ResumeIn to
// reach it. Resuming a process that is not parked, or scheduling a second
// wake-up for one, corrupts the simulation; only task chains should call
// this.
func (e *Engine) ResumeIn(d Time, p *Proc) {
	if d < 0 {
		d = 0
	}
	e.schedule(e.now+d, p)
}

// ResumeNow hands control to parked process p inside the current event:
// p runs on its own stack until it parks again or returns (a panic it
// recorded is re-raised here), then the caller continues. No event is
// scheduled, counted, or timed — the dispatch loop itself delivers process
// events through it. For task chains it is how one that carried a process
// through a Park gives the process its stack back at a point where the
// process itself would have been running: a transfer chain that finds its
// message dropped returns to the sender in the event that dropped it. Only
// code on the engine goroutine (tasks, timer callbacks) may call it, and
// only for a process no pending ResumeIn will also wake.
func (e *Engine) ResumeNow(p *Proc) {
	p.parked = false
	p.resume()
	if e.panicVal != nil {
		panic(e.panicVal)
	}
}
