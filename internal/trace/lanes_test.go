package trace_test

import (
	"strings"
	"testing"

	"github.com/hpcio/das/internal/core"
	"github.com/hpcio/das/internal/experiments"
	"github.com/hpcio/das/internal/trace"
)

// TestNoActorHoldsTwoIntervalsAtOnce traces the Fig. 11 DAS cell, whose
// storage servers read one run ahead and write one run behind, the
// planned DAS pushdown cell, whose rounds walk their runs the same way,
// and the Fig. 11 TS cell, whose compute nodes do it one stripe at a time,
// and checks what the per-actor timeline assumes: an actor is one lane,
// doing one thing at a time. Overlapping stages are lanes of their own
// (server-N/read, /compute, /write, /forward; ts-worker-N/read, /compute,
// /write), and a stall is recorded on the compute lane it holds up.
func TestNoActorHoldsTwoIntervalsAtOnce(t *testing.T) {
	c := experiments.Default()
	pipeline, err := experiments.Select("pipeline")
	if err != nil {
		t.Fatal(err)
	}
	var pushdown experiments.Scenario
	for _, s := range pipeline[0].Scenarios(c) {
		if strings.HasSuffix(s.Name(), " planned | DAS pushdown(forced)") {
			pushdown = s
		}
	}
	if pushdown.DAG.Name == "" {
		t.Fatal("the pipeline experiment has no planned DAS pushdown cell")
	}
	servers := []string{"read", "compute", "write", "forward"}
	for _, tc := range []struct {
		cell   experiments.Scenario
		actor  string
		stages []string
	}{
		{c.Cell(core.DAS, "flow-routing", c.SizesGB[0], c.Nodes), "server-", servers},
		{pushdown, "server-", servers},
		{c.Cell(core.TS, "flow-routing", c.SizesGB[0], c.Nodes), "ts-worker-", []string{"read", "compute", "write"}},
	} {
		name := tc.cell.Name()
		rec := trace.New(0)
		if _, err := c.RunLive(tc.cell, func(l *experiments.Live) { l.Clu.Trace = rec }, nil); err != nil {
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
				t.Fatalf("%s: %s records %s on no lane", name, e.Actor, e.Phase)
			}
			lanes[stage] = true
			if e.Phase == "stall" && stage != "compute" {
				t.Errorf("%s: %s records a stall", name, e.Actor)
			}
			if prev, ok := busyUntil[e.Actor]; ok && e.At < prev.At+prev.Dur {
				t.Fatalf("%s: %s holds two intervals at once: %s [%v, %v) and %s [%v, %v)", name,
					e.Actor, prev.Phase, prev.At, prev.At+prev.Dur, e.Phase, e.At, e.At+e.Dur)
			}
			if prev, ok := busyUntil[e.Actor]; !ok || e.At+e.Dur > prev.At+prev.Dur {
				busyUntil[e.Actor] = e
			}
		}
		for _, stage := range tc.stages {
			if !lanes[stage] {
				t.Errorf("%s: no %s recorded anything on its %s lane", name, strings.TrimSuffix(tc.actor, "-"), stage)
			}
		}
	}
}
