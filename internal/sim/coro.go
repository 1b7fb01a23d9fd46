//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// This file is the process↔engine handoff. Every Proc owns a runtime
// coroutine (iter.Pull over Proc.loop): the engine resumes it with one
// direct switch onto the process's stack, and park switches straight back.
// Neither side touches a channel or the Go scheduler's run queue, which is
// what makes a process wake cost a fraction of a goroutine rendezvous
// (DESIGN.md §11.1 has the numbers). Exactly one side runs at any instant;
// the race detector sees the switch as a happens-before edge.

// start creates p's coroutine. It does not run until the first resume.
func (p *Proc) start() {
	p.resume, p.cancel = iter.Pull(p.loop)
}

// loop is the body of every process coroutine. After the process function
// returns, the Proc joins the engine's free list and the coroutine parks
// here until the next spawn resumes it, so process churn costs no
// allocations. During Shutdown — or once a process has panicked — the loop
// returns instead, ending the coroutine.
func (p *Proc) loop(yield func(struct{}) bool) {
	p.yield = yield
	e := p.eng
	for {
		runProcFn(p)
		if !p.daemon {
			e.live--
		}
		p.done = true
		p.fn = nil
		if e.stopping || e.panicVal != nil {
			return
		}
		e.procFree = append(e.procFree, p)
		if !yield(struct{}{}) {
			return // Shutdown canceled a pooled coroutine
		}
	}
}

// runProcFn runs the process function, containing panics: the shutdown
// sentinel is swallowed (it only unwinds the stack), anything else is
// recorded for Run to re-raise.
func runProcFn(p *Proc) {
	defer func() {
		if r := recover(); r != nil {
			if _, isShutdown := r.(shutdownSentinel); !isShutdown {
				p.eng.panicVal = fmt.Sprintf("sim: process %q panicked: %v", p.Name(), r)
			}
		}
	}()
	if p.eng.stopping {
		return
	}
	p.fn(p)
}
