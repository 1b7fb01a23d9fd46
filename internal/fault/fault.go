// Package fault provides deterministic, DES-clock-driven fault injection
// for the simulated cluster: storage servers crash and restart at planned
// simulated times, disks and NICs degrade by a factor, and a fraction of
// network messages is dropped or delayed. All randomness flows through one
// seeded source drawn on the single engine goroutine, so a run with the
// same seed and plan reproduces the same failures, the same recoveries,
// and the same completion times.
//
// The package deliberately knows nothing about the cluster: State tracks
// fault status per abstract node id and implements the hooks simnet and
// pfs consult; the cluster package schedules Plan events onto a State.
package fault

import (
	"math/rand"

	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/sim"
)

// State is the live fault status of a cluster. It is engine-goroutine
// state, like the rest of the simulation core: mutated only by plan events
// and consulted only by simulated processes.
//
// A zero-valued or freshly created State reports Active() == false, and
// every consumer is expected to fast-path that case so fault-free runs pay
// nothing — neither time nor allocations — for the machinery.
type State struct {
	rng     *rand.Rand
	dropped *metrics.Counter // recovery.dropped_messages

	down        map[int]bool
	incarnation map[int]uint64
	nicFactor   map[int]float64
	lossFrac    float64
	lossDelay   sim.Time

	active bool
}

// NewState creates a healthy fault state that counts into reg.
func NewState(seed int64, reg *metrics.Registry) *State {
	if seed == 0 {
		seed = 1
	}
	return &State{
		rng:         rand.New(rand.NewSource(seed)),
		dropped:     reg.Counter("recovery.dropped_messages"),
		down:        make(map[int]bool),
		incarnation: make(map[int]uint64),
		nicFactor:   make(map[int]float64),
	}
}

// Reseed resets the random source, e.g. when a plan carries its own seed.
func (s *State) Reseed(seed int64) {
	if seed == 0 {
		seed = 1
	}
	s.rng = rand.New(rand.NewSource(seed))
}

// Active reports whether any fault has ever been applied. Consumers use it
// to skip the fault paths entirely on healthy runs; it stays true after
// all faults heal, because timing-sensitive callers must not change
// behavior mid-run when the last fault clears.
func (s *State) Active() bool { return s.active }

// MarkActive forces Active() true. Fault kinds the State does not itself
// track (e.g. disk degradation, applied directly to the disk model) call
// it so consumers still know a faulted run is underway.
func (s *State) MarkActive() { s.active = true }

// SetDown marks a node crashed (true) or restarted (false). A restart
// bumps the node's incarnation so in-flight watchers can tell "still the
// server I called" from "crashed and came back, my request is gone".
func (s *State) SetDown(node int, down bool) {
	s.active = true
	if s.down[node] == down {
		return
	}
	s.down[node] = down
	s.incarnation[node]++
}

// Down reports whether the node is currently crashed.
func (s *State) Down(node int) bool {
	if !s.active {
		return false
	}
	return s.down[node]
}

// Incarnation returns a counter that changes whenever the node crashes or
// restarts.
func (s *State) Incarnation(node int) uint64 {
	if !s.active {
		return 0
	}
	return s.incarnation[node]
}

// Gone reports whether node is down, or has crashed or restarted since
// its incarnation read inc: a process of that incarnation is dead, and a
// reply addressed to it can no longer come.
func (s *State) Gone(node int, inc uint64) bool {
	return s.Down(node) || s.Incarnation(node) != inc
}

// Watch returns the liveness predicate of a call in flight between nodes a
// and b: it reports whether either is Gone since Watch was called. Once it
// holds, the reply can no longer come, whichever end failed — a dead
// caller's response is dropped like a dead target's. pfs's calls and
// active's fan-out poll it, so both give up alike.
func (s *State) Watch(a, b int) func() bool {
	incA, incB := s.Incarnation(a), s.Incarnation(b)
	return func() bool { return s.Gone(a, incA) || s.Gone(b, incB) }
}

// SetNICFactor scales the node's NIC bandwidth by f (0 < f <= 1 degrades,
// 1 restores). Non-positive factors are clamped to a sliver rather than
// zero so transfers still terminate.
func (s *State) SetNICFactor(node int, f float64) {
	s.active = true
	if f <= 0 {
		f = 1e-3
	}
	if f >= 1 {
		delete(s.nicFactor, node)
		return
	}
	s.nicFactor[node] = f
}

// NICFactor returns the node's current NIC bandwidth scale (1 = healthy).
func (s *State) NICFactor(node int) float64 {
	if !s.active {
		return 1
	}
	if f, ok := s.nicFactor[node]; ok {
		return f
	}
	return 1
}

// SetLoss makes every subsequent remote message independently lost with
// probability frac; when delay is positive the message is late by delay
// instead of lost. frac 0 clears the fault.
func (s *State) SetLoss(frac float64, delay sim.Time) {
	s.active = true
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	s.lossFrac = frac
	s.lossDelay = delay
}

// DropMessage decides the fate of one remote message: dropped, delayed by
// the returned extra latency, or (false, 0) delivered normally. The random
// draw happens only while a loss fault is configured, so fault plans
// without loss events consume no randomness and stay deterministic
// regardless of traffic volume.
func (s *State) DropMessage(from, to int) (bool, sim.Time) {
	if !s.active || s.lossFrac == 0 {
		return false, 0
	}
	if s.rng.Float64() >= s.lossFrac {
		return false, 0
	}
	if s.lossDelay > 0 {
		return false, s.lossDelay
	}
	return true, 0
}

// NoteDropped records a message lost to a fault (crashed endpoint or a
// DropMessage verdict); the transport calls it at the point of loss.
func (s *State) NoteDropped(from, to int) {
	s.dropped.Inc()
}
