package sim

import (
	"strings"
	"testing"
)

// countTask records its dispatch times; a reschedule chain built from it
// stands in for simnet's and pfs's pooled task chains.
type countTask struct {
	eng   *Engine
	fires []Time
	left  int
	gap   Time
}

func (t *countTask) RunTask() {
	t.fires = append(t.fires, t.eng.Now())
	if t.left > 0 {
		t.left--
		t.eng.ScheduleTask(t.gap, t)
	}
}

// TestScheduleTaskAdvancesClockAndCounts checks that task events are
// first-class: they advance the virtual clock and increment the event
// counter exactly like process wake-ups.
func TestScheduleTaskAdvancesClockAndCounts(t *testing.T) {
	e := NewEngine()
	ct := &countTask{eng: e, left: 3, gap: 10}
	e.ScheduleTask(5, ct)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{5, 15, 25, 35}
	if len(ct.fires) != len(want) {
		t.Fatalf("fired %d times, want %d", len(ct.fires), len(want))
	}
	for i, at := range want {
		if ct.fires[i] != at {
			t.Fatalf("fire %d at %v, want %v", i, ct.fires[i], at)
		}
	}
	if e.Events() != 4 {
		t.Fatalf("Events = %d, want 4", e.Events())
	}
	if e.Now() != 35 {
		t.Fatalf("Now = %v, want 35", e.Now())
	}
}

// TestTaskAndProcFIFOAtSameTimestamp checks that tasks and process
// wake-ups scheduled for the same instant dispatch in schedule order —
// the seq tie-break ignores what kind of event it is. This is the
// property the task chains rely on: a task at the (at, seq) a process
// wake-up would take cannot reorder anything.
func TestTaskAndProcFIFOAtSameTimestamp(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Spawn("driver", func(p *Proc) {
		e.ScheduleTask(10, taskFunc(func() { order = append(order, "t1") }))
		e.Spawn("p1", func(*Proc) { order = append(order, "p1") })
		p.Sleep(10)
		order = append(order, "driver")
	})
	// p1 starts at t=0; t1 and driver's wake-up both land at t=10, with t1
	// holding the earlier seq.
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"p1", "t1", "driver"}
	if len(order) != len(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

// taskFunc adapts a closure to Tasker for tests.
type taskFunc func()

func (f taskFunc) RunTask() { f() }

// TestResumeInMatchesSleep checks that parking a process and resuming it
// via ResumeIn is indistinguishable from Sleep: same clock, same event
// count.
func TestResumeInMatchesSleep(t *testing.T) {
	run := func(useResume bool) (Time, uint64) {
		e := NewEngine()
		e.Spawn("a", func(p *Proc) {
			if useResume {
				e.ScheduleTask(0, taskFunc(func() { e.ResumeIn(50, p) }))
				p.Park("test", nil)
			} else {
				e.ScheduleTask(0, taskFunc(func() {}))
				p.Sleep(50)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Now(), e.Events()
	}
	nowA, evA := run(true)
	nowB, evB := run(false)
	if nowA != nowB || evA != evB {
		t.Fatalf("ResumeIn run (now %v, events %d) != Sleep run (now %v, events %d)",
			nowA, evA, nowB, evB)
	}
}

// TestResumeNowRunsProcessInsideTheEvent checks the inline hand-back: a
// task that resumes a parked process with ResumeNow costs no event of its
// own — the process continues inside the task's event, at the task's
// timestamp, and the task continues after the process parks again.
func TestResumeNowRunsProcessInsideTheEvent(t *testing.T) {
	e := NewEngine()
	var order []string
	var wokeAt Time
	e.Spawn("a", func(p *Proc) {
		e.ScheduleTask(30, taskFunc(func() {
			order = append(order, "task")
			e.ResumeNow(p)
			order = append(order, "task-after")
		}))
		p.Park("test", nil)
		wokeAt = p.Now()
		order = append(order, "proc")
		p.Sleep(5)
		order = append(order, "proc-after")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(order, " "), "task proc task-after proc-after"; got != want {
		t.Fatalf("order %q, want %q", got, want)
	}
	// spawn, task (process runs inside it), sleep wake-up.
	if wokeAt != 30 || e.Now() != 35 || e.Events() != 3 {
		t.Fatalf("woke at %v, now %v, events %d; want 30, 35, 3", wokeAt, e.Now(), e.Events())
	}
}

// TestShutdownUnwindOrder checks the satellite guarantee: Shutdown
// unwinds parked processes in creation order, every run, so teardown
// traces are reproducible.
func TestShutdownUnwindOrder(t *testing.T) {
	e := NewEngine()
	const n = 8
	var unwound []int
	for i := 0; i < n; i++ {
		i := i
		sig := NewSignal[struct{}](e, "never")
		e.SpawnDaemon("parked", func(p *Proc) {
			defer func() { unwound = append(unwound, i) }()
			sig.Wait(p)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	if len(unwound) != n {
		t.Fatalf("unwound %d processes, want %d", len(unwound), n)
	}
	for i, got := range unwound {
		if got != i {
			t.Fatalf("unwind order %v, want creation order", unwound)
		}
	}
}

// TestMailboxDispatcherMatchesDaemonLoop runs the same put schedule
// against a classic Get-loop daemon and a dispatcher mailbox and checks
// the simulations are indistinguishable: same event count, same clock,
// same per-wake drain behavior (message order included).
func TestMailboxDispatcherMatchesDaemonLoop(t *testing.T) {
	type outcome struct {
		got    []int
		events uint64
		now    Time
	}
	produce := func(e *Engine, m *Mailbox[int]) {
		e.Spawn("producer", func(p *Proc) {
			m.Put(1)
			m.Put(2) // same-instant burst: one wake must drain both
			p.Sleep(10)
			m.Put(3)
			p.Sleep(10)
			m.Put(4)
			m.Put(5)
		})
	}
	classic := func() outcome {
		e := NewEngine()
		m := NewMailbox[int](e, "box")
		var got []int
		e.SpawnDaemon("consumer", func(p *Proc) {
			for {
				got = append(got, m.Get(p))
			}
		})
		produce(e, m)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		e.Shutdown()
		return outcome{got, e.Events(), e.Now()}
	}
	fast := func() outcome {
		e := NewEngine()
		m := NewMailbox[int](e, "box")
		var got []int
		m.SetDispatcher(func(v int) { got = append(got, v) })
		produce(e, m)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		e.Shutdown()
		return outcome{got, e.Events(), e.Now()}
	}
	a, b := classic(), fast()
	if a.events != b.events || a.now != b.now {
		t.Fatalf("classic (events %d, now %v) != dispatcher (events %d, now %v)",
			a.events, a.now, b.events, b.now)
	}
	if len(a.got) != len(b.got) {
		t.Fatalf("classic drained %v, dispatcher %v", a.got, b.got)
	}
	for i := range a.got {
		if a.got[i] != b.got[i] {
			t.Fatalf("classic drained %v, dispatcher %v", a.got, b.got)
		}
	}
}

// TestResourceTaskAndProcWaitersFIFO checks that task waiters and process
// waiters on the same resource are granted in arrival order, whichever
// kind they are.
func TestResourceTaskAndProcWaitersFIFO(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "res", 1)
	var order []string
	e.Spawn("holder", func(p *Proc) {
		r.Acquire(p, 1)
		// Enqueue a task waiter first, then a proc waiter.
		granted := false
		if r.AcquireTask(1, taskFunc(func() {
			granted = true
			order = append(order, "task")
			r.Release(1)
		})) {
			t.Error("AcquireTask granted while held")
		}
		e.Spawn("waiter", func(q *Proc) {
			r.Acquire(q, 1)
			order = append(order, "proc")
			r.Release(1)
		})
		p.Sleep(5)
		r.Release(1)
		_ = granted
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "task" || order[1] != "proc" {
		t.Fatalf("grant order %v, want [task proc]", order)
	}
}
