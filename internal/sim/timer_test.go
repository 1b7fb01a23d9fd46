package sim

import "testing"

func TestAfterFuncFiresAtDeadline(t *testing.T) {
	eng := NewEngine()
	var firedAt Time = -1
	eng.Spawn("spin", func(p *Proc) { p.Sleep(10 * Millisecond) })
	eng.AfterFunc(3*Millisecond, func() { firedAt = eng.Now() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if firedAt != 3*Millisecond {
		t.Fatalf("timer fired at %v, want 3ms", firedAt)
	}
}

func TestAfterFuncStop(t *testing.T) {
	eng := NewEngine()
	fired := false
	eng.Spawn("spin", func(p *Proc) { p.Sleep(10 * Millisecond) })
	tm := eng.AfterFunc(3*Millisecond, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop on pending timer returned false")
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("stopped timer still fired")
	}
	if eng.Now() != 10*Millisecond {
		t.Fatalf("clock at %v, want 10ms", eng.Now())
	}
}

// A pending foreground timer is itself foreground work: Run keeps going
// until it fires even with no live processes.
func TestAfterFuncKeepsRunAlive(t *testing.T) {
	eng := NewEngine()
	fired := false
	eng.AfterFunc(5*Millisecond, func() { fired = true })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("foreground timer did not fire")
	}
	if eng.Now() != 5*Millisecond {
		t.Fatalf("clock at %v, want 5ms", eng.Now())
	}
}

// A daemon timer must not extend a run past the workload: once only daemon
// timers remain queued, Run returns with the clock at the workload's end.
func TestAfterFuncDaemonDoesNotExtendRun(t *testing.T) {
	eng := NewEngine()
	fired := false
	eng.Spawn("work", func(p *Proc) { p.Sleep(2 * Millisecond) })
	eng.AfterFuncDaemon(time100ms, func() { fired = true })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("daemon timer fired after the workload drained")
	}
	if eng.Now() != 2*Millisecond {
		t.Fatalf("clock at %v, want 2ms (daemon timer must not advance it)", eng.Now())
	}
	// A later run that outlives the timer's deadline does dispatch it.
	eng.Spawn("work2", func(p *Proc) { p.Sleep(time100ms) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("daemon timer did not fire during the next, longer run")
	}
}

const time100ms = 100 * Millisecond

func TestMailboxGetTimeoutExpires(t *testing.T) {
	eng := NewEngine()
	mb := NewMailbox[int](eng, "box")
	var ok bool
	var at Time
	eng.Spawn("recv", func(p *Proc) {
		_, ok = mb.GetTimeout(p, 4*Millisecond)
		at = p.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("GetTimeout reported a message on an empty mailbox")
	}
	if at != 4*Millisecond {
		t.Fatalf("timed out at %v, want 4ms", at)
	}
}

func TestMailboxGetTimeoutDelivers(t *testing.T) {
	eng := NewEngine()
	mb := NewMailbox[int](eng, "box")
	var got int
	var ok bool
	eng.Spawn("recv", func(p *Proc) {
		got, ok = mb.GetTimeout(p, 10*Millisecond)
	})
	eng.Spawn("send", func(p *Proc) {
		p.Sleep(2 * Millisecond)
		mb.Put(42)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok || got != 42 {
		t.Fatalf("got (%d,%v), want (42,true)", got, ok)
	}
}

// A message put after the timeout must not be lost and must not wake the
// abandoned receiver twice: it stays queued for the next Get.
func TestMailboxLateMessageAfterTimeout(t *testing.T) {
	eng := NewEngine()
	mb := NewMailbox[int](eng, "box")
	var first, second int
	var firstOK bool
	eng.Spawn("recv", func(p *Proc) {
		first, firstOK = mb.GetTimeout(p, 1*Millisecond)
		p.Sleep(5 * Millisecond) // late message arrives while we are away
		second = mb.Get(p)
	})
	eng.Spawn("send", func(p *Proc) {
		p.Sleep(3 * Millisecond)
		mb.Put(7)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if firstOK {
		t.Fatalf("first receive got %d, want timeout", first)
	}
	if second != 7 {
		t.Fatalf("late message lost: got %d, want 7", second)
	}
}

// Two receivers, the first of which times out: a single Put must skip the
// dead waiter and deliver to the live one.
func TestMailboxPutSkipsDeadWaiter(t *testing.T) {
	eng := NewEngine()
	mb := NewMailbox[int](eng, "box")
	var live int
	eng.Spawn("short", func(p *Proc) {
		if _, ok := mb.GetTimeout(p, 1*Millisecond); ok {
			t.Error("short receiver should have timed out")
		}
	})
	eng.Spawn("long", func(p *Proc) {
		live = mb.Get(p)
	})
	eng.Spawn("send", func(p *Proc) {
		p.Sleep(2 * Millisecond)
		mb.Put(9)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if live != 9 {
		t.Fatalf("live receiver got %d, want 9", live)
	}
}

// Delivery and timeout scheduled at the same instant must produce exactly
// one wake, with delivery winning when its Put ran first.
func TestMailboxTimeoutTiesWithDelivery(t *testing.T) {
	eng := NewEngine()
	mb := NewMailbox[int](eng, "box")
	var got int
	var ok bool
	eng.Spawn("recv", func(p *Proc) {
		got, ok = mb.GetTimeout(p, 2*Millisecond)
		p.Sleep(10 * Millisecond) // survive past any stray double-wake
	})
	eng.Spawn("send", func(p *Proc) {
		p.Sleep(2 * Millisecond) // same instant as the timeout
		mb.Put(5)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// The timer was scheduled before the sender's wake, so at the shared
	// instant the timeout dispatches first: deterministic timeout.
	if ok {
		t.Fatalf("got (%d,%v), want timeout at the tie", got, ok)
	}
	if n := mb.Len(); n != 1 {
		t.Fatalf("tied message lost: %d queued, want 1", n)
	}
	eng.Spawn("late", func(p *Proc) { got = mb.Get(p) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Fatalf("a later Get received %d, want the tied 5", got)
	}
}
