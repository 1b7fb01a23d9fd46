package sim

// Signal is a one-shot completion notification carrying an optional value.
// Any number of processes may Wait; once Fire is called they all resume
// (in wait order) and later Waits return immediately. Firing twice panics:
// a Signal represents a single event.
type Signal[T any] struct {
	eng     *Engine
	name    string
	fired   bool
	val     T
	waiters []*Proc
}

// NewSignal creates an unfired signal. The name is used in deadlock
// diagnostics.
func NewSignal[T any](eng *Engine, name string) *Signal[T] {
	return &Signal[T]{eng: eng, name: name}
}

// Name returns the signal's diagnostic name.
func (s *Signal[T]) Name() string { return s.name }

// Fire marks the signal complete with value v and wakes all waiters.
func (s *Signal[T]) Fire(v T) {
	if s.fired {
		panic("sim: signal " + s.name + " fired twice")
	}
	s.fired = true
	s.val = v
	for _, p := range s.waiters {
		s.eng.schedule(s.eng.now, p)
	}
	s.waiters = nil
}

// Wait blocks the process until the signal fires, then returns the fired
// value. If the signal already fired, it returns immediately.
func (s *Signal[T]) Wait(p *Proc) T {
	if s.fired {
		return s.val
	}
	s.waiters = append(s.waiters, p)
	p.park("wait", s)
	return s.val
}

// WaitAll blocks until every signal in sigs has fired and returns their
// values in order. It is the join half of a fork-join pattern.
func WaitAll[T any](p *Proc, sigs []*Signal[T]) []T {
	out := make([]T, len(sigs))
	for i, s := range sigs {
		out[i] = s.Wait(p)
	}
	return out
}
