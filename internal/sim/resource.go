package sim

import (
	"fmt"
	"strconv"
)

// Resource is a FIFO counting semaphore that models a physical resource
// with finite capacity: a NIC that serializes one transfer at a time, a
// disk with a request queue, a CPU with a fixed number of cores. Processes
// Acquire units, hold them while sleeping for the service time, and
// Release them. Grants are strictly first-come first-served: a large
// request at the head of the queue blocks later, smaller requests, which
// models head-of-line blocking in store-and-forward devices.
//
// Task chains use AcquireTask instead of Acquire: the grant resumes a
// Tasker inline rather than waking a parked process. Both kinds of waiter
// share one FIFO, so mixing them preserves the grant order exactly.
type Resource struct {
	eng  *Engine
	name string
	// Deferred naming for per-node resources on hot construction paths:
	// when name is empty, Name() formats namePre+nameIdx+nameSuf on first
	// use (typically never — only diagnostics read resource names).
	namePre, nameSuf string
	nameIdx          int

	cap  int64
	used int64

	// waiters is a head-indexed FIFO: entries [wHead:len) are queued.
	// Popping advances wHead instead of re-slicing so the backing array is
	// reused once the queue drains, keeping contention allocation-free.
	waiters []resWaiter
	wHead   int

	// Utilization accounting.
	busy      Time // integral of used>0 time (any utilization)
	lastCheck Time
	grants    uint64

	// Queueing accounting: how long acquirers waited in line.
	waited    Time
	waitCount uint64
}

type resWaiter struct {
	proc  *Proc
	task  Tasker
	n     int64
	since Time
}

// NewResource creates a resource with the given capacity (units are up to
// the caller: 1 for an exclusive device, N for N cores). Capacity must be
// positive.
func NewResource(eng *Engine, name string, capacity int64) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: resource %q: capacity must be positive, got %d", name, capacity))
	}
	return &Resource{eng: eng, name: name, cap: capacity}
}

// NewResourceIndexed is NewResource for per-node resources named
// "<prefix><idx><suffix>", formatting the name lazily: constructing
// thousands of nodes should not pay a Sprintf per resource for names only
// deadlock reports ever read.
func NewResourceIndexed(eng *Engine, prefix string, idx int, suffix string, capacity int64) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: resource %s%d%s: capacity must be positive, got %d", prefix, idx, suffix, capacity))
	}
	return &Resource{eng: eng, namePre: prefix, nameIdx: idx, nameSuf: suffix, cap: capacity}
}

// Name returns the resource's diagnostic name, formatting (and caching) an
// indexed name on first use.
func (r *Resource) Name() string {
	if r.name == "" && r.namePre != "" {
		r.name = r.namePre + strconv.Itoa(r.nameIdx) + r.nameSuf
	}
	return r.name
}

// InUse returns the units currently held.
func (r *Resource) InUse() int64 { return r.used }

// Grants returns the number of successful acquisitions so far.
func (r *Resource) Grants() uint64 { return r.grants }

// BusyTime returns the total simulated time during which at least one unit
// was held.
func (r *Resource) BusyTime() Time {
	r.tick()
	return r.busy
}

func (r *Resource) tick() {
	now := r.eng.now
	if r.used > 0 {
		r.busy += now - r.lastCheck
	}
	r.lastCheck = now
}

// grantNow reports whether n units can be granted immediately (no queue,
// capacity available) and takes them if so.
func (r *Resource) grantNow(n int64) bool {
	if r.wHead == len(r.waiters) && r.used+n <= r.cap {
		r.tick()
		r.used += n
		r.grants++
		return true
	}
	return false
}

// Acquire blocks the process until n units are available and the request
// is at the head of the FIFO queue. Requesting more than the capacity
// panics, since it could never be satisfied.
func (r *Resource) Acquire(p *Proc, n int64) {
	if n <= 0 {
		return
	}
	if n > r.cap {
		panic(fmt.Sprintf("sim: resource %q: acquire %d exceeds capacity %d", r.Name(), n, r.cap))
	}
	if r.grantNow(n) {
		return
	}
	r.waiters = append(r.waiters, resWaiter{proc: p, n: n, since: r.eng.now})
	p.park("acquire", r)
	// By the time we are woken, release has already granted our units.
}

// AcquireTask is Acquire for task chains: it either grants n units
// immediately (returning true) or queues t to be scheduled — via a task
// event at the granting Release — once the units are granted (returning
// false). The queued task event occupies exactly the (at, seq) position the
// process waiter's wake-up would, so mixed waiters keep one FIFO order.
func (r *Resource) AcquireTask(n int64, t Tasker) bool {
	if n <= 0 {
		return true
	}
	if n > r.cap {
		panic(fmt.Sprintf("sim: resource %q: acquire %d exceeds capacity %d", r.Name(), n, r.cap))
	}
	if r.grantNow(n) {
		return true
	}
	r.waiters = append(r.waiters, resWaiter{task: t, n: n, since: r.eng.now})
	return false
}

// Release returns n units and wakes queued waiters whose requests now fit,
// in FIFO order. It may be called by any process (not only the holder).
func (r *Resource) Release(n int64) {
	if n <= 0 {
		return
	}
	r.tick()
	r.used -= n
	if r.used < 0 {
		panic(fmt.Sprintf("sim: resource %q: released more than held", r.Name()))
	}
	for r.wHead < len(r.waiters) && r.used+r.waiters[r.wHead].n <= r.cap {
		w := r.waiters[r.wHead]
		r.waiters[r.wHead] = resWaiter{}
		r.wHead++
		r.used += w.n
		r.grants++
		r.waited += r.eng.now - w.since
		r.waitCount++
		if w.task != nil {
			r.eng.ScheduleTask(0, w.task)
		} else {
			r.eng.schedule(r.eng.now, w.proc)
		}
	}
	if r.wHead == len(r.waiters) {
		r.waiters = r.waiters[:0]
		r.wHead = 0
	}
}

// Use acquires n units, sleeps for the service time d, and releases. It is
// the common pattern for modeling a timed pass through a device.
func (r *Resource) Use(p *Proc, n int64, d Time) {
	r.Acquire(p, n)
	p.Sleep(d)
	r.Release(n)
}

// WaitTime returns the total time granted acquirers spent queued — the
// congestion signal: zero on an idle device, large on an overloaded one.
func (r *Resource) WaitTime() Time { return r.waited }

// Waits returns how many acquisitions had to queue before being granted.
func (r *Resource) Waits() uint64 { return r.waitCount }
