package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the harness from
// outside: the benchmark wraps each public call it makes, so a span's
// children are the calls the harness nested inside it, not the program's
// own internals.
type span struct {
	Name   string
	Rep    int // repetition id; negative for the rounds of the one-time set-up
	Parent int // index into spans.all, -1 for a root
	Start  time.Duration
	End    time.Duration
}

// spans keeps every span of a run in memory; writeTrace dumps them when
// the run ends.
type spans struct {
	epoch time.Time
	rep   int
	all   []span
	open  []int // stack of indices into all
}

func newSpans() *spans { return &spans{epoch: time.Now(), rep: -1} }

// do runs fn inside a span named for the layer entered.
func (sp *spans) do(name string, fn func() error) error {
	parent := -1
	if n := len(sp.open); n > 0 {
		parent = sp.open[n-1]
	}
	idx := len(sp.all)
	sp.all = append(sp.all, span{Name: name, Rep: sp.rep, Parent: parent, Start: time.Since(sp.epoch)})
	sp.open = append(sp.open, idx)
	err := fn()
	sp.open = sp.open[:len(sp.open)-1]
	sp.all[idx].End = time.Since(sp.epoch)
	return err
}

// selfTimes returns, per span, its duration minus the part its direct
// children cover. The harness runs one call at a time, so children never
// overlap each other.
func selfTimes(all []span) []time.Duration {
	self := make([]time.Duration, len(all))
	for i, s := range all {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// selfByName sums self time per span name within one repetition.
func (sp *spans) selfByName(rep int) map[string]time.Duration {
	out := make(map[string]time.Duration)
	self := selfTimes(sp.all)
	for i, s := range sp.all {
		if s.Rep == rep {
			out[s.Name] += self[i]
		}
	}
	return out
}

// traceEvent is one complete ("X") event of the Chrome trace-event
// format, which Perfetto and chrome://tracing both load.
type traceEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`  // microseconds
	Dur  float64           `json:"dur"` // microseconds
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// writeTrace writes the spans as Chrome trace-event JSON: one track per
// set-up round, then one per repetition.
func (sp *spans) writeTrace(path, workload string) error {
	events := make([]traceEvent, 0, len(sp.all))
	for _, s := range sp.all {
		events = append(events, traceEvent{
			Name: s.Name,
			Ph:   "X",
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.End-s.Start) / float64(time.Microsecond),
			Pid:  1,
			Tid:  s.Rep + setupRounds,
			Args: map[string]string{"workload": workload},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
