package layout

import "testing"

// TestMigratingFollowsMoveSet: placement queries resolve under the old
// layout until a strip's bit flips, under the target after.
func TestMigratingFollowsMoveSet(t *testing.T) {
	old := NewRoundRobin(4)
	target := NewGroupedReplicated(4, 4, 1)
	moves := NewMoveSet(16)
	m := NewMigrating(old, target, moves)

	for s := int64(0); s < 16; s++ {
		if got, want := m.Primary(s), old.Primary(s); got != want {
			t.Fatalf("unmoved Primary(%d) = %d, want old %d", s, got, want)
		}
		if got := replicaList(m.Holders(s)); len(got) != 0 {
			t.Fatalf("unmoved replicas of %d = %v, want none (round-robin)", s, got)
		}
	}

	moves.Set(5)
	moves.Set(7)
	for s := int64(0); s < 16; s++ {
		wantLay := Layout(old)
		if s == 5 || s == 7 {
			wantLay = target
		}
		if got, want := m.Primary(s), wantLay.Primary(s); got != want {
			t.Errorf("Primary(%d) = %d, want %d", s, got, want)
		}
		if got, want := m.Holders(s), wantLay.Holders(s); got != want {
			t.Errorf("Holders(%d) = %v, want %v", s, holderList(got), holderList(want))
		}
	}
	if moved, total := moves.Count(), moves.Len(); moved != 2 || total != 16 {
		t.Errorf("moved %d/%d, want 2/16", moved, total)
	}

	// Re-setting is idempotent.
	moves.Set(5)
	if moves.Count() != 2 {
		t.Errorf("Count after duplicate Set = %d, want 2", moves.Count())
	}
}

// TestMigratingSnapshotFreezes: a Snapshot taken mid-migration keeps
// serving the placement of that instant even as further strips flip.
func TestMigratingSnapshotFreezes(t *testing.T) {
	old := NewRoundRobin(3)
	target := NewGroupedReplicated(3, 2, 1)
	moves := NewMoveSet(6)
	m := NewMigrating(old, target, moves)
	moves.Set(2)

	snap := m.Snapshot(6)
	wantPrim := make([]int, 6)
	wantHolders := make([]Holders, 6)
	for s := int64(0); s < 6; s++ {
		wantPrim[s] = m.Primary(s)
		wantHolders[s] = m.Holders(s)
	}

	moves.Set(0)
	moves.Set(4)
	for s := int64(0); s < 6; s++ {
		if got := snap.Primary(s); got != wantPrim[s] {
			t.Errorf("snapshot Primary(%d) = %d, want frozen %d", s, got, wantPrim[s])
		}
		if got := snap.Holders(s); got != wantHolders[s] {
			t.Errorf("snapshot Holders(%d) = %v, want frozen %v", s, holderList(got), holderList(wantHolders[s]))
		}
	}
	// Past the table a snapshot degrades to round-robin rather than lying.
	if got, want := snap.Primary(100), 100%3; got != want {
		t.Errorf("out-of-table Primary(100) = %d, want %d", got, want)
	}
	if got := snap.Holders(100); got != only(1) {
		t.Errorf("out-of-table Holders(100) = %v, want [1]", holderList(got))
	}
}

// TestConcrete: migrating layouts freeze, stable layouts pass through.
func TestConcrete(t *testing.T) {
	rr := NewRoundRobin(2)
	if got := Concrete(rr, 4); got != Layout(rr) {
		t.Errorf("Concrete(round-robin) = %v, want identity", got)
	}
	m := NewMigrating(rr, NewGroupedReplicated(2, 2, 1), NewMoveSet(4))
	if _, ok := Concrete(m, 4).(*Table); !ok {
		t.Errorf("Concrete(migrating) = %T, want *Table", Concrete(m, 4))
	}
}
