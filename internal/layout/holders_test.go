package layout

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// referenceHolders writes a strip's holders out of Eqs. (14)–(16) by
// brute force: group G of r strips lives on server (G + start) mod D, and
// that server also stores the halo strips on either side of the group,
// [G·r − halo, (G+1)·r + halo). halo = 0 is the unreplicated Grouped
// layout, r = 1 and halo = 0 round-robin. It lists the primary first, then
// every other server holding s, ascending.
func referenceHolders(s int64, d, r, halo, start int) []int {
	g := s / int64(r)
	primary := int((g + int64(start)) % int64(d))
	var reps []int
	for srv := 0; srv < d; srv++ {
		if srv == primary {
			continue
		}
		for grp := g - 2; grp <= g+2; grp++ {
			owner := int(((grp+int64(start))%int64(d) + int64(d)) % int64(d))
			if owner == srv && grp*int64(r)-int64(halo) <= s && s < (grp+1)*int64(r)+int64(halo) {
				reps = append(reps, srv)
				break
			}
		}
	}
	return append([]int{primary}, reps...)
}

// referenceCopies is ReplicatedRoundRobin by brute force: the copies
// servers following strip s's, the primary first, the rest ascending.
func referenceCopies(s int64, d, copies int) []int {
	var reps []int
	for i := 1; i < copies; i++ {
		reps = append(reps, int((s+int64(i))%int64(d)))
	}
	sort.Ints(reps)
	return append([]int{int(s % int64(d))}, reps...)
}

// TestHoldersMatchReference checks every layout's holder set, strip by
// strip over a few groups, against the brute-force reference: the primary
// first and once, the replicas ascending, no server twice, and Has true
// exactly for the listed servers.
func TestHoldersMatchReference(t *testing.T) {
	type tc struct {
		l   Layout
		ref func(s int64) []int
	}
	grouped := func(d, r, halo, start int) tc {
		l := StartingAt(NewGrouped(d, r), start)
		if halo > 0 {
			l = StartingAt(NewGroupedReplicated(d, r, halo), start)
		}
		return tc{l, func(s int64) []int { return referenceHolders(s, d, r, halo, start) }}
	}
	cases := []tc{
		{StartingAt(NewRoundRobin(5), 2), func(s int64) []int { return referenceHolders(s, 5, 1, 0, 2) }},
		grouped(4, 3, 0, 1),
		grouped(1, 4, 1, 0), // D = 1: everything on the one server
		grouped(1, 2, 2, 0),
		grouped(2, 4, 1, 0), // D = 2: both neighbours are the other server
		grouped(2, 3, 2, 1), // the middle strip sits in both halos
		grouped(2, 2, 2, 0),
		grouped(3, 4, 1, 0), // D ≥ 3, halo = 1
		grouped(3, 4, 4, 2), // halo = r, rotated
		grouped(4, 1, 1, 3), // r = 1: every strip on three servers
		grouped(5, 4, 2, 4),
		grouped(12, 8, 2, 0),
	}
	for copies := 1; copies <= 3; copies++ {
		cases = append(cases, tc{NewReplicatedRoundRobin(4, copies), func(s int64) []int { return referenceCopies(s, 4, copies) }})
	}
	// A migration from round-robin to grouped-replicated with some strips
	// flipped, and its frozen snapshot: each strip follows the layout its
	// bit names.
	const strips = 24
	moves := NewMoveSet(strips)
	for _, s := range []int64{0, 3, 4, 5, 11, 16, 23} {
		moves.Set(s)
	}
	mig := NewMigrating(NewRoundRobin(3), NewGroupedReplicated(3, 4, 1), moves)
	migRef := func(s int64) []int {
		if moves.Moved(s) {
			return referenceHolders(s, 3, 4, 1, 0)
		}
		return referenceHolders(s, 3, 1, 0, 0)
	}
	cases = append(cases, tc{mig, migRef}, tc{Concrete(mig, strips), migRef})

	for _, c := range cases {
		for s := int64(0); s < strips; s++ {
			name := fmt.Sprintf("%s strip %d", c.l.Name(), s)
			h, want := c.l.Holders(s), c.ref(s)
			if got := holderList(h); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: holders %v, want %v", name, got, want)
				continue
			}
			if h.At(0) != c.l.Primary(s) {
				t.Errorf("%s: holder 0 is %d, primary %d", name, h.At(0), c.l.Primary(s))
			}
			for srv := -1; srv <= c.l.Servers(); srv++ {
				held := false
				for _, w := range want {
					held = held || w == srv
				}
				if h.Has(srv) != held {
					t.Errorf("%s: Has(%d) = %v, want %v", name, srv, h.Has(srv), held)
				}
			}
		}
	}
}

// TestHoldersAllocateNothing: asking whether a server holds a halo strip,
// and placing a redo wave's strips, allocate nothing.
func TestHoldersAllocateNothing(t *testing.T) {
	var l Layout = NewGroupedReplicated(12, 8, 2)
	if got := holderList(l.Holders(8)); len(got) != 2 {
		t.Fatalf("strip 8 holders %v, want a halo strip with one replica", got)
	}
	var held bool
	if n := testing.AllocsPerRun(100, func() { held = l.Holders(8).Has(0) }); n != 0 || !held {
		t.Errorf("Holders(8).Has(0) = %v with %v allocations, want true with 0", held, n)
	}

	// A redo wave over a down server's strips on a mirrored layout: every
	// strip runs off its primary, on the least-given live holder.
	mirrored := NewGroupedReplicated(4, 2, 2)
	var wave []int64
	for g := int64(1); g < 64; g += 4 {
		wave = append(wave, 2*g, 2*g+1)
	}
	pl := NewPlacer(mirrored, func(srv int) bool { return srv != 1 })
	pl.Share(wave)
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := pl.Place(wave[i%len(wave)], false); !ok {
			t.Fatal("a redo strip found no live holder")
		}
		i++
	}); n != 0 {
		t.Errorf("Placer.Place on a redo wave: %v allocations, want 0", n)
	}
}
