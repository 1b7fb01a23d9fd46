// Package trace records a timeline of annotated events from a simulation
// run: which actor (a scheme worker, a storage server's AS helper, a PFS
// migration) did what, when, for how long. The DAS layers emit events when
// a Recorder is attached to the cluster, so a run can be replayed as a
// per-actor timeline — the quickest way to see why NAS spends its life
// waiting for dependent strips while DAS's servers stream local reads.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/hpcio/das/internal/sim"
)

// Event is one annotated interval (or instant, when Dur is zero).
type Event struct {
	At    sim.Time
	Dur   sim.Time
	Actor string // e.g. "server-3", "ts-worker-0"
	Phase string // e.g. "local-read", "fetch", "compute"
	Note  string // free-form detail
}

// Recorder collects events. It is safe for concurrent use (simulation
// callbacks are single-threaded, but tests may read while building).
// The zero value is unusable; create with New. A nil *Recorder is valid
// everywhere and records nothing, but Go evaluates Record's arguments
// before the nil receiver is seen: a call site that formats its actor or
// note wraps the call in `if rec != nil`, so an untraced run formats and
// allocates nothing.
type Recorder struct {
	mu     sync.Mutex
	events []Event
	limit  int
}

// New creates a recorder capping storage at limit events (0 = 1<<20).
// Beyond the cap new events are dropped and Truncated reports true.
func New(limit int) *Recorder {
	if limit <= 0 {
		limit = 1 << 20
	}
	return &Recorder{limit: limit}
}

// Record appends an event; nil recorders ignore it.
func (r *Recorder) Record(at, dur sim.Time, actor, phase, note string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(r.events) < r.limit {
		r.events = append(r.events, Event{At: at, Dur: dur, Actor: actor, Phase: phase, Note: note})
	}
	r.mu.Unlock()
}

// Len returns the number of stored events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Truncated reports whether the cap dropped events.
func (r *Recorder) Truncated() bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events) >= r.limit
}

// Events returns a copy sorted by (At, Actor, Phase).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Actor != b.Actor {
			return a.Actor < b.Actor
		}
		return a.Phase < b.Phase
	})
	return out
}

// Reset discards all events.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.events = r.events[:0]
	r.mu.Unlock()
}

// Timeline renders the events chronologically, one line each:
//
//	12.345ms +2.100ms  server-3      fetch        strip 17 from server 4
func (r *Recorder) Timeline() string {
	evs := r.Events()
	if len(evs) == 0 {
		return "(no events)\n"
	}
	actorW, phaseW := 0, 0
	for _, e := range evs {
		if len(e.Actor) > actorW {
			actorW = len(e.Actor)
		}
		if len(e.Phase) > phaseW {
			phaseW = len(e.Phase)
		}
	}
	var b strings.Builder
	for _, e := range evs {
		dur := ""
		if e.Dur > 0 {
			dur = "+" + e.Dur.String()
		}
		fmt.Fprintf(&b, "%12s %-12s %-*s %-*s %s\n",
			e.At.String(), dur, actorW, e.Actor, phaseW, e.Phase, e.Note)
	}
	if r.Truncated() {
		b.WriteString("... (event cap reached, tail dropped)\n")
	}
	return b.String()
}

// PhaseSummary aggregates total duration and count per (actor, phase).
type PhaseSummary struct {
	Actor, Phase string
	Total        sim.Time
	Count        int
}

// Summarize returns per-actor-per-phase totals, ordered by actor then by
// descending total duration — the "where did the time go" view.
func (r *Recorder) Summarize() []PhaseSummary {
	type key struct{ actor, phase string }
	acc := make(map[key]*PhaseSummary)
	for _, e := range r.Events() {
		k := key{e.Actor, e.Phase}
		s, ok := acc[k]
		if !ok {
			s = &PhaseSummary{Actor: e.Actor, Phase: e.Phase}
			acc[k] = s
		}
		s.Total += e.Dur
		s.Count++
	}
	out := make([]PhaseSummary, 0, len(acc))
	for _, s := range acc {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Actor != out[j].Actor {
			return out[i].Actor < out[j].Actor
		}
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Phase < out[j].Phase
	})
	return out
}

// SummaryTable renders Summarize as aligned text.
func (r *Recorder) SummaryTable() string {
	sums := r.Summarize()
	if len(sums) == 0 {
		return "(no events)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %-14s %12s %7s\n", "actor", "phase", "total", "count")
	for _, s := range sums {
		fmt.Fprintf(&b, "%-20s %-14s %12s %7d\n", s.Actor, s.Phase, s.Total.String(), s.Count)
	}
	return b.String()
}
