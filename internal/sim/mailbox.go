package sim

import "strconv"

// Mailbox is an unbounded FIFO message queue between processes. Put never
// blocks; Get blocks the receiving process until a message is available.
// When several processes wait on the same mailbox, messages are handed to
// waiters in their arrival order, preserving determinism.
//
// A mailbox can instead drive a dispatcher (SetDispatcher): the task-side
// replacement for a daemon process looping over Get. Put then schedules a
// task event in exactly the position the daemon's wake-up would occupy,
// and the mailbox's RunTask drains the queue through the dispatcher inline
// on the engine goroutine — same events, no goroutine switches.
//
// Both internal queues are head-indexed: popping advances a head cursor
// instead of re-slicing, so the backing arrays are reused once the queue
// drains and steady-state traffic through a mailbox allocates nothing.
type Mailbox[T any] struct {
	eng  *Engine
	name string
	// Deferred naming, as in Resource: per-node mailboxes on hot
	// construction paths format "<pre><idx><suf>" only if a diagnostic
	// ever asks.
	namePre, nameSuf string
	nameIdx          int

	items []T
	iHead int

	// waiters are receivers parked in Get. When a message arrives for a
	// waiter, the value is stored in its slot before the process is woken,
	// so a later Get by another process cannot steal it. Spent waiters are
	// recycled through free.
	waiters []*boxWaiter[T]
	wHead   int
	free    []*boxWaiter[T]

	// Dispatcher state. armed mirrors "the daemon loop is
	// parked in Get": exactly one of {armed, a pending task event} holds
	// whenever dispatch is set and the queue is empty/non-empty.
	dispatch func(T)
	armed    bool

	// abandon, when set, reclaims the mailbox on the next Put that finds
	// no live waiter: the value is dropped unobserved and the hook runs
	// once. See Abandon.
	abandon func()

	// next, when set, consumes the next Put as an inline task event: the
	// task-based caller's stand-in for a Reserve'd process waiter. See
	// Expect.
	next     Receiver[T]
	nextFree []*nextTask[T]
}

// Receiver consumes a value delivered to a mailbox it Expect'ed on. It is
// an interface rather than a func so pooled caller state can receive
// without allocating a closure per call.
type Receiver[T any] interface {
	OnDelivery(v T)
}

// nextTask carries one delivered value from Put to the Receiver as a task
// event; spent tasks are recycled through the mailbox's nextFree pool.
type nextTask[T any] struct {
	m   *Mailbox[T]
	r   Receiver[T]
	val T
}

func (n *nextTask[T]) RunTask() {
	m, r, v := n.m, n.r, n.val
	var zero T
	n.r, n.val = nil, zero
	m.nextFree = append(m.nextFree, n)
	r.OnDelivery(v)
}

type boxWaiter[T any] struct {
	proc  *Proc
	val   T
	ready bool
	dead  bool // timed out in GetTimeout; Put recycles it instead of delivering
}

// NewMailbox creates an empty mailbox. The name is used in deadlock
// diagnostics.
func NewMailbox[T any](eng *Engine, name string) *Mailbox[T] {
	return &Mailbox[T]{eng: eng, name: name}
}

// NewMailboxIndexed creates an empty mailbox named "<prefix><idx><suffix>",
// formatted lazily on first Name() call: per-node mailboxes are created in
// the thousands and their names read only by deadlock reports.
func NewMailboxIndexed[T any](eng *Engine, prefix string, idx int, suffix string) *Mailbox[T] {
	return &Mailbox[T]{eng: eng, namePre: prefix, nameIdx: idx, nameSuf: suffix}
}

// Name returns the mailbox's diagnostic name, formatting (and caching) an
// indexed name on first use.
func (m *Mailbox[T]) Name() string {
	if m.name == "" && m.namePre != "" {
		m.name = m.namePre + strconv.Itoa(m.nameIdx) + m.nameSuf
	}
	return m.name
}

// Len returns the number of queued (undelivered) messages.
func (m *Mailbox[T]) Len() int { return len(m.items) - m.iHead }

// Put enqueues v. If a receiver is waiting, the message is assigned to the
// longest-waiting receiver and that process is scheduled to resume at the
// current time. If a dispatcher is installed and idle, a task event is
// scheduled to drain the queue. Put never blocks and may be called from
// any process or task.
func (m *Mailbox[T]) Put(v T) {
	for m.wHead < len(m.waiters) {
		w := m.waiters[m.wHead]
		m.waiters[m.wHead] = nil
		m.wHead++
		if m.wHead == len(m.waiters) {
			m.waiters = m.waiters[:0]
			m.wHead = 0
		}
		if w.dead {
			// Receiver already timed out and moved on; recycle its slot and
			// try the next waiter.
			w.proc, w.dead = nil, false
			m.free = append(m.free, w)
			continue
		}
		w.val = v
		w.ready = true
		m.eng.schedule(m.eng.now, w.proc)
		return
	}
	if m.abandon != nil {
		// The receiver gave up on this mailbox; drop the value unobserved
		// and hand the mailbox back to its owner. One-shot.
		fn := m.abandon
		m.abandon = nil
		fn()
		return
	}
	if m.next != nil {
		// A task-based caller Expects this value: hand it over as a task
		// event in exactly the position a Reserve'd process waiter's
		// wake-up would occupy. One-shot.
		t := m.acquireNext()
		t.r, t.val = m.next, v
		m.next = nil
		m.eng.ScheduleTask(0, t)
		return
	}
	m.items = append(m.items, v)
	if m.dispatch != nil && m.armed {
		// The dispatcher is idle — exactly the state where a daemon loop
		// would be parked in Get — so this Put schedules its wake-up,
		// as a task event at the identical (at, seq) position.
		m.armed = false
		m.eng.ScheduleTask(0, m)
	}
}

// SetDispatcher installs fn as this mailbox's inline message handler and
// schedules the initial drain task — the stand-in for a daemon process's
// start event. The
// handler runs on the engine goroutine and must not block; messages Put
// before the initial task dispatches are drained by it in order. Get and
// GetTimeout must not be used on a dispatcher mailbox.
func (m *Mailbox[T]) SetDispatcher(fn func(T)) {
	if m.dispatch != nil {
		panic("sim: mailbox " + m.Name() + ": dispatcher already set")
	}
	m.dispatch = fn
	m.armed = false
	m.eng.ScheduleTask(0, m)
}

// RunTask drains every queued message through the dispatcher, then re-arms.
// One drain per wake — not one per message — is exactly how a daemon
// loop behaves: woken once, it Gets until the queue is empty, then
// parks again.
func (m *Mailbox[T]) RunTask() {
	for {
		v, ok := m.popItem()
		if !ok {
			break
		}
		m.dispatch(v)
	}
	m.armed = true
}

// Get dequeues the oldest message, blocking the process until one exists.
func (m *Mailbox[T]) Get(p *Proc) T {
	if m.dispatch != nil {
		panic("sim: mailbox " + m.Name() + ": Get on a dispatcher mailbox")
	}
	if v, ok := m.popItem(); ok {
		return v
	}
	w := m.acquireWaiter(p)
	m.waiters = append(m.waiters, w)
	p.park("recv", m)
	if !w.ready {
		panic("sim: mailbox woke receiver without a message")
	}
	v := w.val
	var zero T
	w.val, w.proc = zero, nil
	m.free = append(m.free, w)
	return v
}

// GetTimeout dequeues the oldest message, blocking the process for at most
// d simulated time. It returns ok=false if no message arrived in time. A
// message Put at the exact timeout instant is delivered only if the Put
// was scheduled before the timeout fired; otherwise it stays queued for
// the next receiver — it is never lost.
func (m *Mailbox[T]) GetTimeout(p *Proc, d Time) (T, bool) {
	if m.dispatch != nil {
		panic("sim: mailbox " + m.Name() + ": GetTimeout on a dispatcher mailbox")
	}
	if v, ok := m.popItem(); ok {
		return v, true
	}
	var zero T
	if d <= 0 {
		return zero, false
	}
	w := m.acquireWaiter(p)
	m.waiters = append(m.waiters, w)
	t := m.eng.AfterFunc(d, func() {
		if w.ready {
			// Delivery was scheduled at this same instant before the timer
			// fired; the receiver already has exactly one pending wake.
			return
		}
		w.dead = true
		m.eng.schedule(m.eng.now, w.proc)
	})
	p.park("recv", m)
	if !w.ready {
		// Timed out. The dead waiter stays in the queue until a later Put
		// skips over and recycles it.
		return zero, false
	}
	t.Stop()
	v := w.val
	w.val, w.proc = zero, nil
	m.free = append(m.free, w)
	return v, true
}

// Pending is a registered receive: the fused-call half of Get. Reserve
// splits Get's "register waiter" from its "park", so a client can register
// for the reply, run the request's transfer chain, and park exactly once
// for the whole RPC.
type Pending[T any] struct {
	m *Mailbox[T]
	w *boxWaiter[T]
}

// Reserve registers the calling process as this mailbox's next receiver
// without blocking. The mailbox must be empty with no other waiters (a
// reply mailbox mid-call always is). The caller must park before the
// delivering Put's wake-up dispatches, and then Redeem the value.
func (m *Mailbox[T]) Reserve(p *Proc) Pending[T] {
	if m.iHead != len(m.items) || m.wHead != len(m.waiters) {
		panic("sim: mailbox " + m.Name() + ": Reserve on a non-empty mailbox")
	}
	w := m.acquireWaiter(p)
	m.waiters = append(m.waiters, w)
	return Pending[T]{m: m, w: w}
}

// Redeem returns the value delivered to a Reserve'd waiter. It must be
// called after the process wakes from the park that followed Reserve.
func (pd Pending[T]) Redeem() T {
	m, w := pd.m, pd.w
	if !w.ready {
		panic("sim: mailbox " + m.Name() + ": Redeem before delivery")
	}
	v := w.val
	var zero T
	w.val, w.proc, w.ready = zero, nil, false
	m.free = append(m.free, w)
	return v
}

// Expect registers r as the one-shot inline consumer of this mailbox's
// next Put: the task-based caller's half of a fused RPC, standing in for
// Reserve + park + Redeem. The delivering Put schedules a task event at
// the identical (at, seq) a process waiter's wake-up would occupy, and
// that event hands the value to r.OnDelivery on the engine goroutine. The
// mailbox must be empty with no waiters, dispatcher, or prior Expect.
func (m *Mailbox[T]) Expect(r Receiver[T]) {
	if m.dispatch != nil || m.next != nil {
		panic("sim: mailbox " + m.Name() + ": Expect on a dispatched mailbox")
	}
	if m.iHead != len(m.items) || m.wHead != len(m.waiters) {
		panic("sim: mailbox " + m.Name() + ": Expect on a non-empty mailbox")
	}
	m.next = r
}

// acquireNext returns a reset delivery task, reusing a spent one when
// possible.
func (m *Mailbox[T]) acquireNext() *nextTask[T] {
	if n := len(m.nextFree); n > 0 {
		t := m.nextFree[n-1]
		m.nextFree[n-1] = nil
		m.nextFree = m.nextFree[:n-1]
		return t
	}
	return &nextTask[T]{m: m}
}

// Abandon arranges for the next Put that finds no live waiter to drop its
// value and call fn once, instead of queueing the value forever. It is how
// a canceled caller hands its reply mailbox back to a pool: the late
// response, when it finally arrives, triggers reclamation instead of
// leaking the mailbox. If the mailbox already holds an undelivered value,
// Abandon drops it and runs fn immediately.
func (m *Mailbox[T]) Abandon(fn func()) {
	if m.iHead != len(m.items) {
		m.items = m.items[:0]
		m.iHead = 0
		fn()
		return
	}
	m.abandon = fn
}

// acquireWaiter returns a reset waiter slot for p, reusing a spent one when
// possible.
func (m *Mailbox[T]) acquireWaiter(p *Proc) *boxWaiter[T] {
	if n := len(m.free); n > 0 {
		w := m.free[n-1]
		m.free[n-1] = nil
		m.free = m.free[:n-1]
		w.proc, w.ready, w.dead = p, false, false
		return w
	}
	return &boxWaiter[T]{proc: p}
}

// popItem removes the oldest queued message, zeroing its slot so the
// mailbox does not pin message payloads after delivery.
func (m *Mailbox[T]) popItem() (T, bool) {
	if m.iHead == len(m.items) {
		var zero T
		return zero, false
	}
	v := m.items[m.iHead]
	var zero T
	m.items[m.iHead] = zero
	m.iHead++
	if m.iHead == len(m.items) {
		m.items = m.items[:0]
		m.iHead = 0
	}
	return v, true
}
