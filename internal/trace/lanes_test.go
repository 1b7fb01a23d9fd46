package trace_test

import (
	"strings"
	"testing"

	"github.com/hpcio/das/internal/core"
	"github.com/hpcio/das/internal/experiments"
	"github.com/hpcio/das/internal/trace"
)

// TestNoActorHoldsTwoIntervalsAtOnce traces the Fig. 11 DAS cell, whose
// storage servers read one run ahead and write one run behind, and checks
// what the per-actor timeline assumes: an actor is one lane, doing one
// thing at a time. A server's overlapping stages are lanes of their own
// (server-N/read, /compute, /write, /forward).
func TestNoActorHoldsTwoIntervalsAtOnce(t *testing.T) {
	c := experiments.Default()
	rec := trace.New(0)
	if _, err := c.RunLive(c.Cell(core.DAS, "flow-routing", c.SizesGB[0], c.Nodes),
		func(l *experiments.Live) { l.Clu.Trace = rec }, nil); err != nil {
		t.Fatal(err)
	}
	busyUntil := make(map[string]trace.Event) // actor -> its latest interval so far
	lanes := make(map[string]bool)
	for _, e := range rec.Events() { // sorted by At
		if _, stage, ok := strings.Cut(e.Actor, "/"); ok {
			lanes[stage] = true
		}
		if prev, ok := busyUntil[e.Actor]; ok && e.At < prev.At+prev.Dur {
			t.Fatalf("%s holds two intervals at once: %s [%v, %v) and %s [%v, %v)",
				e.Actor, prev.Phase, prev.At, prev.At+prev.Dur, e.Phase, e.At, e.At+e.Dur)
		}
		if prev, ok := busyUntil[e.Actor]; !ok || e.At+e.Dur > prev.At+prev.Dur {
			busyUntil[e.Actor] = e
		}
	}
	for _, stage := range []string{"read", "compute", "write", "forward"} {
		if !lanes[stage] {
			t.Errorf("no server recorded anything on its %s lane", stage)
		}
	}
}
