package layout

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestStripAndServer(t *testing.T) {
	// 8-byte elements, 64-byte strips → 8 elements per strip, 4 servers.
	lc := NewLocator(8, 64, NewRoundRobin(4))
	if lc.ElemsPerStrip() != 8 {
		t.Fatalf("ElemsPerStrip = %d", lc.ElemsPerStrip())
	}
	cases := []struct {
		elem   int64
		strip  int64
		server int
	}{
		{0, 0, 0}, {7, 0, 0}, {8, 1, 1}, {15, 1, 1}, {32, 4, 0}, {33, 4, 0},
	}
	for _, c := range cases {
		if got := lc.Strip(c.elem); got != c.strip {
			t.Errorf("Strip(%d) = %d, want %d", c.elem, got, c.strip)
		}
		if got := lc.Server(c.elem); got != c.server {
			t.Errorf("Server(%d) = %d, want %d", c.elem, got, c.server)
		}
	}
}

func TestDepStripBoundsChecking(t *testing.T) {
	lc := NewLocator(8, 64, NewRoundRobin(4))
	if _, ok := lc.DepStrip(0, -1, 100); ok {
		t.Error("dependence before file start must be out of range")
	}
	if _, ok := lc.DepStrip(99, 1, 100); ok {
		t.Error("dependence past file end must be out of range")
	}
	s, ok := lc.DepStrip(8, -1, 100)
	if !ok || s != 0 {
		t.Errorf("DepStrip(8,-1) = (%d,%v), want (0,true)", s, ok)
	}
}

func TestLocalDepRoundRobinCrossesStrips(t *testing.T) {
	lc := NewLocator(8, 64, NewRoundRobin(4))
	// Element 7 is the last of strip 0 (server 0); its +1 neighbor is in
	// strip 1 (server 1): remote.
	if lc.LocalDep(7, 1, 1000) {
		t.Error("cross-strip dependence should be remote under round-robin")
	}
	// Interior dependence stays local.
	if !lc.LocalDep(3, 1, 1000) {
		t.Error("intra-strip dependence should be local")
	}
	// Out-of-file dependence clamps to local.
	if !lc.LocalDep(0, -5, 1000) {
		t.Error("out-of-file dependence must be treated as local")
	}
}

func TestLocalDepGroupedReplicated(t *testing.T) {
	// Same geometry but the improved layout, halo sized for the widest
	// offset (±9 elements = 72 bytes spans two strip boundaries → halo 2).
	offsets := []int64{-9, -8, -7, -1, 1, 7, 8, 9}
	halo := NewLocator(8, 64, NewRoundRobin(4)).RequiredHalo(9)
	if halo != 2 {
		t.Fatalf("RequiredHalo(9) = %d, want 2", halo)
	}
	lc := NewLocator(8, 64, NewGroupedReplicated(4, 4, halo))
	total := int64(4 * 4 * 8 * 2) // two full rounds of groups
	for i := int64(0); i < total; i++ {
		for _, off := range offsets {
			if !lc.LocalDep(i, off, total) {
				t.Fatalf("element %d offset %d not local under grouped-replicated", i, off)
			}
		}
	}
}

func TestStripsAndBounds(t *testing.T) {
	lc := NewLocator(8, 64, NewRoundRobin(2))
	if got := lc.Strips(0); got != 0 {
		t.Errorf("Strips(0) = %d", got)
	}
	if got := lc.Strips(1); got != 1 {
		t.Errorf("Strips(1) = %d, want 1", got)
	}
	if got := lc.Strips(64); got != 1 {
		t.Errorf("Strips(64) = %d, want 1", got)
	}
	if got := lc.Strips(65); got != 2 {
		t.Errorf("Strips(65) = %d, want 2", got)
	}
	lo, hi := lc.StripBounds(1, 100)
	if lo != 64 || hi != 100 {
		t.Errorf("StripBounds(1,100) = [%d,%d), want [64,100)", lo, hi)
	}
}

func TestRequiredHalo(t *testing.T) {
	lc := NewLocator(8, 64, NewRoundRobin(4))
	cases := []struct {
		off  int64
		want int
	}{
		{0, 0},  // no dependence
		{1, 1},  // 8 bytes, within one strip but can cross one boundary
		{8, 1},  // exactly one strip away
		{9, 2},  // 72 bytes spans two strip boundaries
		{16, 2}, // two strips
	}
	for _, c := range cases {
		if got := lc.RequiredHalo(c.off); got != c.want {
			t.Errorf("RequiredHalo(%d) = %d, want %d", c.off, got, c.want)
		}
	}
}

func TestPrimaryAndReplicaStripEnumeration(t *testing.T) {
	l := NewGroupedReplicated(2, 2, 1)
	// strips: 0,1 → server 0; 2,3 → server 1; 4,5 → server 0; ...
	if prim, want := primaryOn(l, 0, 6), []int64{0, 1, 4, 5}; !slices.Equal(prim, want) {
		t.Fatalf("primaries on server 0 = %v, want %v", prim, want)
	}
	// Server 1's group edges (strips 2 and 3) replicate to server 0.
	if reps, want := replicaOn(l, 0, 6), []int64{2, 3}; !slices.Equal(reps, want) {
		t.Fatalf("replicas on server 0 = %v, want %v", reps, want)
	}
}

func TestLocatorValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero elem", func() { NewLocator(0, 64, NewRoundRobin(2)) })
	mustPanic("zero strip", func() { NewLocator(8, 0, NewRoundRobin(2)) })
	mustPanic("unaligned", func() { NewLocator(8, 100, NewRoundRobin(2)) })
	mustPanic("negative elem index", func() {
		NewLocator(8, 64, NewRoundRobin(2)).Strip(-1)
	})
}

// Property (the paper's central locality theorem, §III-D): with a halo
// sized by RequiredHalo, every dependence within ±maxOff is locally
// resolvable under GroupedReplicated, provided groups are wide enough that
// the halo fits (halo ≤ r).
func TestGroupedReplicatedLocalityProperty(t *testing.T) {
	prop := func(dRaw, rRaw uint8, offRaw uint8, elemRaw uint16) bool {
		d := int(dRaw%8) + 2
		maxOff := int64(offRaw%24) + 1
		lcProbe := NewLocator(8, 64, NewRoundRobin(d))
		halo := lcProbe.RequiredHalo(maxOff)
		r := halo + int(rRaw%8) + 1 // any group size ≥ halo+1
		lc := NewLocator(8, 64, NewGroupedReplicated(d, r, halo))
		total := int64(d*r) * lc.ElemsPerStrip() * 3
		i := int64(elemRaw) % total
		for off := -maxOff; off <= maxOff; off++ {
			if !lc.LocalDep(i, off, total) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: round-robin and grouped layouts never reduce to the same
// placement unless r == 1, in which case they must agree exactly.
func TestGroupedDegeneratesToRoundRobin(t *testing.T) {
	prop := func(dRaw uint8, stripRaw uint16) bool {
		d := int(dRaw%16) + 1
		s := int64(stripRaw)
		return NewGrouped(d, 1).Primary(s) == NewRoundRobin(d).Primary(s)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
