package trace_test

import (
	"strings"
	"testing"

	"github.com/hpcio/das/internal/core"
	"github.com/hpcio/das/internal/experiments"
	"github.com/hpcio/das/internal/trace"
)

// TestNoActorHoldsTwoIntervalsAtOnce traces the Fig. 11 DAS cell, whose
// storage servers read one run ahead and write one run behind, and the
// Fig. 11 TS cell, whose compute nodes do the same one stripe at a time,
// and checks what the per-actor timeline assumes: an actor is one lane,
// doing one thing at a time. Overlapping stages are lanes of their own
// (server-N/read, /compute, /write, /forward; ts-worker-N/read, /compute,
// /write), and a stall is recorded on the compute lane it holds up.
func TestNoActorHoldsTwoIntervalsAtOnce(t *testing.T) {
	c := experiments.Default()
	for _, tc := range []struct {
		scheme core.Scheme
		actor  string
		stages []string
	}{
		{core.DAS, "server-", []string{"read", "compute", "write", "forward"}},
		{core.TS, "ts-worker-", []string{"read", "compute", "write"}},
	} {
		rec := trace.New(0)
		if _, err := c.RunLive(c.Cell(tc.scheme, "flow-routing", c.SizesGB[0], c.Nodes),
			func(l *experiments.Live) { l.Clu.Trace = rec }, nil); err != nil {
			t.Fatal(err)
		}
		busyUntil := make(map[string]trace.Event) // actor -> its latest interval so far
		lanes := make(map[string]bool)
		for _, e := range rec.Events() { // sorted by At
			if !strings.HasPrefix(e.Actor, tc.actor) {
				continue
			}
			_, stage, ok := strings.Cut(e.Actor, "/")
			if !ok {
				t.Fatalf("%v: %s records %s on no lane", tc.scheme, e.Actor, e.Phase)
			}
			lanes[stage] = true
			if e.Phase == "stall" && stage != "compute" {
				t.Errorf("%v: %s records a stall", tc.scheme, e.Actor)
			}
			if prev, ok := busyUntil[e.Actor]; ok && e.At < prev.At+prev.Dur {
				t.Fatalf("%v: %s holds two intervals at once: %s [%v, %v) and %s [%v, %v)", tc.scheme,
					e.Actor, prev.Phase, prev.At, prev.At+prev.Dur, e.Phase, e.At, e.At+e.Dur)
			}
			if prev, ok := busyUntil[e.Actor]; !ok || e.At+e.Dur > prev.At+prev.Dur {
				busyUntil[e.Actor] = e
			}
		}
		for _, stage := range tc.stages {
			if !lanes[stage] {
				t.Errorf("%v: no %s recorded anything on its %s lane", tc.scheme, strings.TrimSuffix(tc.actor, "-"), stage)
			}
		}
	}
}
