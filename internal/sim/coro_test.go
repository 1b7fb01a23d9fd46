package sim

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestShutdownEndsEveryCoroutine: each Proc holds a runtime coroutine,
// which the runtime counts as a goroutine until its function returns.
// Shutdown must end all of them whatever state they are in: parked on a
// wait, parked mid-unwind in a deferred cleanup, finished and pooled for
// reuse, or spawned and never started.
func TestShutdownEndsEveryCoroutine(t *testing.T) {
	baseline := settledGoroutines()
	e := NewEngine()
	reqs := NewMailbox[int](e, "reqs")
	never := NewSignal[struct{}](e, "never")
	e.SpawnDaemon("server", func(p *Proc) {
		defer func() {
			defer func() { recover() }() // the nested park re-panics
			p.Sleep(Millisecond)
		}()
		for {
			reqs.Get(p)
			p.Spawn("handler", func(h *Proc) { h.Sleep(Millisecond) })
		}
	})
	for i := 0; i < 4; i++ {
		e.Spawn("client", func(p *Proc) { reqs.Put(1) })
		e.SpawnDaemon("waiter", func(p *Proc) { never.Wait(p) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Spawn("never-started", func(p *Proc) { t.Error("process body ran during shutdown") })
	if len(e.procFree) == 0 {
		t.Fatal("no finished process was pooled: the mix is incomplete")
	}
	if n := settledGoroutines(); n <= baseline {
		t.Fatalf("%d goroutines with %d live coroutines, baseline %d: the count does not see coroutines",
			n, len(e.procs), baseline)
	}
	e.Shutdown()
	if n := settledGoroutines(); n != baseline {
		t.Errorf("%d goroutines after Shutdown, want the baseline %d", n, baseline)
	}
	if e.Live() != 0 {
		t.Errorf("%d live processes after shutdown", e.Live())
	}
}

// settledGoroutines returns the goroutine count once it has held still for
// a while. A goroutine already on its way out — the previous test's runner
// after it signalled, the finalizer goroutine while it runs a finalizer —
// counts toward one reading and not the next, so a single reading can be
// off by one either side of Shutdown.
func settledGoroutines() int {
	n, still := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(2 * time.Second); still < 20 && time.Now().Before(deadline); {
		time.Sleep(100 * time.Microsecond)
		if m := runtime.NumGoroutine(); m == n {
			still++
		} else {
			n, still = m, 0
		}
	}
	return n
}

// TestProcessPanicText pins the re-raised value: the process's name as
// given at Spawn, then the panic's own text.
func TestProcessPanicText(t *testing.T) {
	e := NewEngine()
	defer e.Shutdown()
	e.SpawnDaemon("bystander", func(p *Proc) { p.Park("test", nil) })
	e.Spawn("bomb", func(p *Proc) {
		p.Sleep(Millisecond)
		panic("boom")
	})
	defer func() {
		if got, want := fmt.Sprint(recover()), `sim: process "bomb" panicked: boom`; got != want {
			t.Errorf("Run panicked with %q, want %q", got, want)
		}
	}()
	_ = e.Run()
	t.Fatal("Run returned normally")
}

// TestDeadlockReportTellsSameNamedProcessesApart: hot paths spawn under
// constant names, so the report appends each process's spawn ordinal.
func TestDeadlockReportTellsSameNamedProcessesApart(t *testing.T) {
	e := NewEngine()
	defer e.Shutdown()
	sig := NewSignal[int](e, "as-fetch")
	e.Spawn("parent", func(p *Proc) {
		for i := 0; i < 2; i++ {
			p.Spawn("as-fetch", func(f *Proc) { sig.Wait(f) })
		}
		p.Spawn("", func(f *Proc) { sig.Wait(f) })
	})
	err := e.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	want := []string{"as-fetch#2 (wait as-fetch)", "as-fetch#3 (wait as-fetch)", "proc-4 (wait as-fetch)"}
	if fmt.Sprint(dl.Stuck) != fmt.Sprint(want) {
		t.Errorf("stuck list = %q, want %q", dl.Stuck, want)
	}
}
