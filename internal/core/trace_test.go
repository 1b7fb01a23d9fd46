package core

import (
	"fmt"
	"runtime/debug"
	"testing"

	"github.com/hpcio/das/internal/trace"
	"github.com/hpcio/das/internal/workload"
)

// TestNilRecorderFormatsNothing pins the guard at the Trace.Record call
// sites a TS worker and the storage servers' stage bodies (active.Stages,
// which NAS drives) reach: every recorded event formats an actor and a
// note, at least two allocations, so a traced run must allocate at least
// that much more than the same run untraced. Were the untraced run to
// format its arguments before Record saw the nil receiver, the two would
// allocate alike.
func TestNilRecorderFormatsNothing(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // keep the buffer pools warm between runs
	g := workload.Terrain(testW, testH, 5)
	for _, scheme := range []Scheme{TS, NAS} {
		s := newSystem(t, scheme, g)
		defer s.Close()
		runs := 0
		run := func() {
			runs++
			req := Request{Op: "flow-routing", Input: "in", Output: fmt.Sprintf("out-%d", runs), Scheme: scheme}
			if _, err := s.Execute(req); err != nil {
				t.Fatalf("%v: %v", scheme, err)
			}
		}
		const n = 5
		untraced := testing.AllocsPerRun(n, run)
		rec := trace.New(0)
		s.Clu.Trace = rec
		traced := testing.AllocsPerRun(n, run)
		events := float64(rec.Len()) / (n + 1) // AllocsPerRun warms up with one extra call
		if events == 0 {
			t.Fatalf("%v: the traced run recorded no events", scheme)
		}
		t.Logf("%v: %v events, %.0f allocations traced, %.0f untraced", scheme, events, traced, untraced)
		if traced-untraced < 2*events {
			t.Errorf("%v: %v events cost %.0f allocations traced against %.0f untraced; the untraced run is paying for formatting",
				scheme, events, traced, untraced)
		}
	}
}
