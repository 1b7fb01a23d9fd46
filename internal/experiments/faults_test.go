package experiments

import (
	"strings"
	"testing"

	"github.com/hpcio/das/internal/core"
)

func TestFaultFailoverExperiment(t *testing.T) {
	c := quick()
	r, recs := execute(t, c, faultsExperiment)
	for si, scheme := range []core.Scheme{core.TS, core.NAS, core.DAS} {
		healthy, ok1 := r.Value(scheme.String()+"_healthy", float64(si))
		crashed, ok2 := r.Value(scheme.String()+"_crash", float64(si))
		if !ok1 || !ok2 {
			t.Fatalf("%v: missing cells in %+v", scheme, r.Rows)
		}
		if healthy <= 0 || crashed <= 0 {
			t.Errorf("%v: non-positive times healthy=%g crashed=%g", scheme, healthy, crashed)
		}
		if crashed < healthy {
			t.Errorf("%v: crashed run %.4fs faster than healthy %.4fs", scheme, crashed, healthy)
		}
	}
	notes := strings.Join(r.Notes, "\n")
	if !strings.Contains(notes, "byte-identical") {
		t.Errorf("notes never claim verification:\n%s", notes)
	}
	// DAS loses its server for good: the run must have failed reads over to
	// replica holders, and the note records it.
	for _, line := range r.Notes {
		if strings.HasPrefix(line, "DAS: ") && strings.Contains(line, "failover reads 0,") {
			t.Errorf("DAS crash run recorded no failover reads: %s", line)
		}
	}
	if das := recs[len(recs)-1].Counters; das.Int("recovery.failover_reads") == 0 || das.Int("fault.events_applied") != 1 {
		t.Errorf("DAS crash record: %+v", das)
	}
}
