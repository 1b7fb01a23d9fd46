package restripe

import (
	"reflect"
	"strings"
	"testing"

	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/pfs"
)

// TestPlanMovesCoversEveryStripOnce: the plan is a permutation of the
// file's strips — nothing skipped, nothing doubled.
func TestPlanMovesCoversEveryStripOnce(t *testing.T) {
	meta := &pfs.FileMeta{Name: "f", Size: 32 * 512, StripSize: 512}
	old := layout.NewRoundRobin(4)
	target := layout.NewGroupedReplicated(4, 4, 1)
	plan := planMoves(meta, old, target)
	if int64(len(plan)) != meta.Strips() {
		t.Fatalf("plan has %d moves for %d strips", len(plan), meta.Strips())
	}
	seen := make(map[int64]bool)
	for _, mv := range plan {
		if seen[mv.strip] {
			t.Errorf("strip %d planned twice", mv.strip)
		}
		seen[mv.strip] = true
	}
}

// TestPlanMovesFlipsLeadThenSourcesInterleave: zero-copy flips (every
// target holder already stores the strip) form a prefix of the plan, and
// the copy moves behind them alternate across their source servers rather
// than draining one server's queue at a time.
func TestPlanMovesFlipsLeadThenSourcesInterleave(t *testing.T) {
	meta := &pfs.FileMeta{Name: "f", Size: 32 * 512, StripSize: 512}
	old := layout.NewRoundRobin(4)
	target := layout.NewGroupedReplicated(4, 4, 1)
	plan := planMoves(meta, old, target)

	copies := -1
	for i, mv := range plan {
		if mv.estBytes == 0 && copies >= 0 {
			t.Fatalf("zero-copy flip of strip %d at %d, after copy moves began", mv.strip, i)
		}
		if mv.estBytes > 0 && copies < 0 {
			copies = i
		}
	}
	if copies < 0 {
		t.Fatal("RR -> grouped-replicated planned no copy moves")
	}
	// In the copy region, a source never appears twice before every other
	// pending source appeared once: runs of identical sources are length 1.
	for i := copies + 1; i < len(plan); i++ {
		a, b := old.Primary(plan[i-1].strip), old.Primary(plan[i].strip)
		if a == b {
			// Legal only once the other sources' queues drained; every
			// remaining move must then share this source.
			for j := i; j < len(plan); j++ {
				if old.Primary(plan[j].strip) != b {
					t.Fatalf("source %d repeated at plan[%d] while source %d still pending",
						b, i, old.Primary(plan[j].strip))
				}
			}
			break
		}
	}
}

// TestPlanMovesDeterministic guards the DES contract at the planning step.
func TestPlanMovesDeterministic(t *testing.T) {
	meta := &pfs.FileMeta{Name: "f", Size: 48 * 512, StripSize: 512}
	old := layout.NewRoundRobin(4)
	target := layout.NewGroupedReplicated(4, 4, 2)
	a, b := planMoves(meta, old, target), planMoves(meta, old, target)
	if !reflect.DeepEqual(a, b) {
		t.Error("identical planning inputs produced different plans")
	}
}

// TestConfigNormalize rejects out-of-range settings and fills defaults.
func TestConfigNormalize(t *testing.T) {
	c, err := Config{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if c.MovesPerTick <= 0 || c.MaxInFlightBytes <= 0 || c.RetryDelay <= 0 || c.MinObservedBytes <= 0 {
		t.Errorf("zero config not fully defaulted: %+v", c)
	}
	for _, bad := range []Config{
		{MinObservedBytes: -1},
		{MovesPerTick: -1},
		{MaxInFlightBytes: -1},
		{RetryDelay: -1},
	} {
		if _, err := bad.Normalize(); err == nil {
			t.Errorf("config %+v normalized without error", bad)
		}
	}
}

// TestCheckReleasedNamesTheServer: a reservation left behind fails the
// check, naming the first server still charged and its bytes.
func TestCheckReleasedNamesTheServer(t *testing.T) {
	m := &Migrator{inflight: []int64{0, 0, 0}}
	if err := m.CheckReleased(); err != nil {
		t.Errorf("no bytes in flight: %v", err)
	}
	m.inflight[1], m.inflight[2] = 512, 1024
	err := m.CheckReleased()
	if err == nil || !strings.Contains(err.Error(), "server 1 holds 512 in-flight migration bytes") {
		t.Errorf("512 bytes left on server 1: %v", err)
	}
}
