package metrics

import (
	"testing"
)

// TestRegistrySumsServerLabels: a name's cluster total is the sum over its
// server labels, each label reads alone, and asking for a handle twice
// returns the same counter.
func TestRegistrySumsServerLabels(t *testing.T) {
	r := NewRegistry()
	r.ServerCounter("cache.hits", 0).Add(3)
	r.ServerCounter("cache.hits", 2).Inc()
	r.ServerCounter("cache.hits", 2).Inc()
	r.Counter("restripe.planned").Inc()
	if got := r.Get("cache.hits"); got != 5 {
		t.Errorf("cache.hits total = %d, want 5", got)
	}
	for srv, want := range []int64{3, 0, 2, 0} {
		if got := r.GetServer("cache.hits", srv); got != want {
			t.Errorf("cache.hits at server %d = %d, want %d", srv, got, want)
		}
	}
	if got := r.Get("restripe.planned"); got != 1 {
		t.Errorf("restripe.planned = %d, want 1", got)
	}
	if got := r.Get("never.registered"); got != 0 {
		t.Errorf("an unregistered name reads %d, want 0", got)
	}
	snap := r.Snapshot()
	if len(snap) != 2 || snap["cache.hits"] != 5 || snap["restripe.planned"] != 1 {
		t.Errorf("Snapshot = %v", snap)
	}
}

// TestRegistryFormat: one formatter, every registered name under the prefix
// in name order, zero counts included.
func TestRegistryFormat(t *testing.T) {
	r := NewRegistry()
	if got := r.Format("restripe."); got != "(none)" {
		t.Errorf("empty Format = %q", got)
	}
	r.Counter("restripe.planned").Inc()
	r.Counter("restripe.bytes_copied").Add(65536)
	r.Counter("restripe.resumes")
	r.Counter("cache.hits").Inc()
	want := "restripe.bytes_copied=65536 restripe.planned=1 restripe.resumes=0"
	if got := r.Format("restripe."); got != want {
		t.Errorf("Format = %q, want %q", got, want)
	}
}

// TestCounterIncrementAllocatesNothing: counting on a taken handle is one
// atomic add.
func TestCounterIncrementAllocatesNothing(t *testing.T) {
	c := NewRegistry().ServerCounter("cache.hit_bytes", 3)
	if n := testing.AllocsPerRun(100, func() { c.Inc(); c.Add(4096) }); n != 0 {
		t.Errorf("an increment allocates %v times", n)
	}
}
