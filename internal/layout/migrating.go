package layout

import "fmt"

// MoveSet tracks which strips of a file have been migrated to a new
// layout: a bitset over the strip index space, flipped strip by strip as
// the online restriper commits moves. It is the shared state behind the
// dual-layout read rule — a Migrating layout consults it on every
// placement query, so a flip redirects readers instantly.
type MoveSet struct {
	bits  []uint64
	n     int64
	moved int64
}

// NewMoveSet returns an empty set over n strips.
func NewMoveSet(n int64) *MoveSet {
	if n < 0 {
		panic(fmt.Sprintf("layout: move set over %d strips", n))
	}
	return &MoveSet{bits: make([]uint64, (n+63)/64), n: n}
}

// Len returns the strip count the set spans.
func (ms *MoveSet) Len() int64 { return ms.n }

// Moved reports whether strip s has been migrated. Strips outside the set
// report false, so a stale index degrades to the old placement.
func (ms *MoveSet) Moved(s int64) bool {
	if s < 0 || s >= ms.n {
		return false
	}
	return ms.bits[s/64]&(1<<uint(s%64)) != 0
}

// Set marks strip s migrated. Idempotent.
func (ms *MoveSet) Set(s int64) {
	if s < 0 || s >= ms.n {
		panic(fmt.Sprintf("layout: move set strip %d out of [0,%d)", s, ms.n))
	}
	mask := uint64(1) << uint(s%64)
	if ms.bits[s/64]&mask == 0 {
		ms.bits[s/64] |= mask
		ms.moved++
	}
}

// Count returns how many strips are marked migrated.
func (ms *MoveSet) Count() int64 { return ms.moved }

// Migrating is the dual-layout placement a file carries while the online
// restriper moves it between layouts: strips the migration has not reached
// resolve under the old layout, migrated strips under the new one. Every
// read path that consults Layout — client reads, failover holder scans,
// active-storage owner lookups — therefore follows each strip to wherever
// its current authoritative copy lives, with no per-callsite changes.
type Migrating struct {
	old, target Layout
	moves       *MoveSet
}

// NewMigrating wraps an old and a target layout around a move set. The
// layouts must span the same server count.
func NewMigrating(old, target Layout, moves *MoveSet) *Migrating {
	if old.Servers() != target.Servers() {
		panic(fmt.Sprintf("layout: migrating between %d and %d servers", old.Servers(), target.Servers()))
	}
	if moves == nil {
		panic("layout: migrating with nil move set")
	}
	return &Migrating{old: old, target: target, moves: moves}
}

// Name identifies the transition; it stays stable across flips so layout
// comparisons made during a migration don't see a moving target.
func (m *Migrating) Name() string {
	return fmt.Sprintf("migrating(%s -> %s)", m.old.Name(), m.target.Name())
}

// Servers returns the server count both layouts span.
func (m *Migrating) Servers() int { return m.target.Servers() }

// Primary follows the move set: old placement until the strip's move
// commits, new placement after.
func (m *Migrating) Primary(s int64) int {
	if m.moves.Moved(s) {
		return m.target.Primary(s)
	}
	return m.old.Primary(s)
}

// Holders follows the move set like Primary.
func (m *Migrating) Holders(s int64) Holders {
	if m.moves.Moved(s) {
		return m.target.Holders(s)
	}
	return m.old.Holders(s)
}

// Target returns the layout the migration is converging to.
func (m *Migrating) Target() Layout { return m.target }

// Snapshot freezes the current dual placement of the first n strips into a
// concrete Table layout. Output files produced while their input migrates
// are created with such a snapshot: the executing servers and the
// readback both follow the frozen table, so a flip committing mid-run
// cannot strand an output strip where no reader will look.
func (m *Migrating) Snapshot(n int64) *Table {
	holders := make([]Holders, n)
	for s := range holders {
		holders[s] = m.Holders(int64(s))
	}
	return NewTable(m.Servers(), holders)
}

// Table is an explicit per-strip placement: strip s's holders come from a
// table rather than arithmetic. Strips beyond the table fall back to
// round-robin; in practice a table always covers its file.
type Table struct {
	d       int
	holders []Holders
}

// NewTable builds an explicit placement over d servers, strip s on
// holders[s].
func NewTable(d int, holders []Holders) *Table {
	mustServers(d)
	return &Table{d: d, holders: holders}
}

// Name identifies the frozen placement.
func (t *Table) Name() string {
	return fmt.Sprintf("table(D=%d,strips=%d)", t.d, len(t.holders))
}

// Servers returns the server count.
func (t *Table) Servers() int { return t.d }

// Primary returns the tabled owner of strip s.
func (t *Table) Primary(s int64) int { return t.Holders(s).At(0) }

// Holders returns the tabled holders of strip s.
func (t *Table) Holders(s int64) Holders {
	if s < 0 || s >= int64(len(t.holders)) {
		return only(int(mod(s, int64(t.d))))
	}
	return t.holders[s]
}

// Concrete resolves a possibly-migrating layout to a stable one for a file
// of n strips: a frozen snapshot when the layout is mid-migration, the
// layout itself otherwise.
func Concrete(l Layout, n int64) Layout {
	if m, ok := l.(*Migrating); ok {
		return m.Snapshot(n)
	}
	return l
}
