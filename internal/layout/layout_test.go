package layout

import (
	"testing"
	"testing/quick"
)

// holderList and replicaList spell a holder set as a slice, every holder
// or the replicas alone (nil when there are none), to compare with
// literals.
func holderList(h Holders) []int {
	var l []int
	for i := 0; i < h.Len(); i++ {
		l = append(l, h.At(i))
	}
	return l
}

func replicaList(h Holders) []int {
	if h.Len() == 1 {
		return nil
	}
	return holderList(h)[1:]
}

func TestRoundRobinPrimary(t *testing.T) {
	l := NewRoundRobin(4)
	for s := int64(0); s < 16; s++ {
		if got := l.Primary(s); got != int(s%4) {
			t.Errorf("Primary(%d) = %d, want %d", s, got, s%4)
		}
	}
	if l.Holders(3).Len() != 1 {
		t.Error("round-robin must not replicate")
	}
}

func TestGroupedPlacesRunsTogether(t *testing.T) {
	l := NewGrouped(3, 4)
	// strips 0-3 → server 0, 4-7 → server 1, 8-11 → server 2, 12-15 → server 0
	wants := []int{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 0, 0, 0, 0}
	for s, want := range wants {
		if got := l.Primary(int64(s)); got != want {
			t.Errorf("Primary(%d) = %d, want %d", s, got, want)
		}
	}
}

func TestGroupedReplicatedBoundaries(t *testing.T) {
	// D=4, r=4, halo=1: first strip of each group also on previous server,
	// last strip also on next server (paper Fig. 9).
	l := NewGroupedReplicated(4, 4, 1)
	cases := []struct {
		strip   int64
		primary int
		reps    []int
	}{
		{0, 0, []int{3}},  // group 0 start → previous server wraps to 3
		{1, 0, nil},       // interior
		{2, 0, nil},       // interior
		{3, 0, []int{1}},  // group 0 end → next server
		{4, 1, []int{0}},  // group 1 start
		{7, 1, []int{2}},  // group 1 end
		{12, 3, []int{2}}, // group 3 start
		{15, 3, []int{0}}, // group 3 end wraps to 0
	}
	for _, c := range cases {
		if got := l.Primary(c.strip); got != c.primary {
			t.Errorf("Primary(%d) = %d, want %d", c.strip, got, c.primary)
		}
		got := replicaList(l.Holders(c.strip))
		if len(got) != len(c.reps) {
			t.Errorf("replicas of %d = %v, want %v", c.strip, got, c.reps)
			continue
		}
		for i := range got {
			if got[i] != c.reps[i] {
				t.Errorf("replicas of %d = %v, want %v", c.strip, got, c.reps)
			}
		}
	}
}

func TestGroupedReplicatedWideHalo(t *testing.T) {
	// halo=2 replicates the two strips at each group edge.
	l := NewGroupedReplicated(4, 8, 2)
	if reps := replicaList(l.Holders(0)); len(reps) != 1 || reps[0] != 3 {
		t.Errorf("replicas of 0 = %v, want [3]", reps)
	}
	if reps := replicaList(l.Holders(1)); len(reps) != 1 || reps[0] != 3 {
		t.Errorf("replicas of 1 = %v, want [3]", reps)
	}
	if reps := replicaList(l.Holders(2)); reps != nil {
		t.Errorf("replicas of 2 = %v, want none", reps)
	}
	if reps := replicaList(l.Holders(6)); len(reps) != 1 || reps[0] != 1 {
		t.Errorf("replicas of 6 = %v, want [1]", reps)
	}
}

func TestGroupedReplicatedTinyGroupBothSides(t *testing.T) {
	// r == halo: every strip is replicated to both neighbors.
	l := NewGroupedReplicated(4, 1, 1)
	reps := replicaList(l.Holders(1)) // group 1 on server 1, neighbors 0 and 2
	if len(reps) != 2 || reps[0] != 0 || reps[1] != 2 {
		t.Errorf("replicas of 1 = %v, want [0 2]", reps)
	}
}

func TestGroupedReplicatedTwoServersDedup(t *testing.T) {
	// With D=2 the previous and next server coincide; no duplicates.
	l := NewGroupedReplicated(2, 1, 1)
	reps := replicaList(l.Holders(0))
	if len(reps) != 1 || reps[0] != 1 {
		t.Errorf("replicas of 0 = %v, want [1]", reps)
	}
}

func TestGroupedReplicatedSingleServerNoReplicas(t *testing.T) {
	l := NewGroupedReplicated(1, 4, 1)
	for s := int64(0); s < 8; s++ {
		if reps := replicaList(l.Holders(s)); reps != nil {
			t.Errorf("replicas of %d = %v, want none with one server", s, reps)
		}
	}
}

func TestReplicatedRoundRobinPlacement(t *testing.T) {
	l := NewReplicatedRoundRobin(4, 3)
	if l.Primary(5) != 1 {
		t.Errorf("Primary(5) = %d, want 1", l.Primary(5))
	}
	reps := replicaList(l.Holders(5)) // next two servers: 2, 3
	if len(reps) != 2 || reps[0] != 2 || reps[1] != 3 {
		t.Errorf("replicas of 5 = %v, want [2 3]", reps)
	}
	// Wrap-around: strip 3 on server 3 replicates to 0 and 1 (ascending).
	reps = replicaList(l.Holders(3))
	if len(reps) != 2 || reps[0] != 0 || reps[1] != 1 {
		t.Errorf("replicas of 3 = %v, want [0 1]", reps)
	}
	// Single copy degenerates to plain round-robin.
	if NewReplicatedRoundRobin(4, 1).Holders(7).Len() != 1 {
		t.Error("copies=1 must not replicate")
	}
	for _, bad := range []int{0, 4, 5} { // at most min(D, 3) copies
		bad := bad
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("copies=%d accepted", bad)
				}
			}()
			NewReplicatedRoundRobin(4, bad)
		}()
	}
}

func TestReplicatedRoundRobinWellFormed(t *testing.T) {
	l := NewReplicatedRoundRobin(5, 3)
	for s := int64(0); s < 40; s++ {
		seen := map[int]bool{l.Primary(s): true}
		for _, r := range replicaList(l.Holders(s)) {
			if r < 0 || r >= 5 || seen[r] {
				t.Fatalf("strip %d: bad replica set %v (primary %d)", s, replicaList(l.Holders(s)), l.Primary(s))
			}
			seen[r] = true
		}
		if len(seen) != 3 {
			t.Fatalf("strip %d: %d distinct holders, want 3", s, len(seen))
		}
	}
}

func TestHoldersAndHolds(t *testing.T) {
	l := NewGroupedReplicated(4, 4, 1)
	h := holderList(l.Holders(3)) // primary 0, replica 1
	if len(h) != 2 || h[0] != 0 || h[1] != 1 {
		t.Errorf("Holders(3) = %v, want [0 1]", h)
	}
	if !l.Holders(3).Has(0) || !l.Holders(3).Has(1) || l.Holders(3).Has(2) {
		t.Error("Holds disagrees with Holders")
	}
}

func TestOverheadRatio(t *testing.T) {
	if got := OverheadRatio(NewRoundRobin(4)); got != 0 {
		t.Errorf("round-robin overhead %v", got)
	}
	if got := OverheadRatio(NewGroupedReplicated(4, 4, 1)); got != 0.5 {
		t.Errorf("grouped-replicated(r=4) overhead %v, want 0.5 (= 2/r)", got)
	}
	if got := OverheadRatio(NewGroupedReplicated(4, 8, 2)); got != 0.5 {
		t.Errorf("halo=2,r=8 overhead %v, want 0.5", got)
	}
	if got := OverheadRatio(NewGroupedReplicated(1, 4, 1)); got != 0 {
		t.Errorf("single-server overhead %v, want 0", got)
	}
}

func TestConstructorValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero servers", func() { NewRoundRobin(0) })
	mustPanic("zero group", func() { NewGrouped(4, 0) })
	mustPanic("zero halo", func() { NewGroupedReplicated(4, 4, 0) })
	mustPanic("halo > r", func() { NewGroupedReplicated(4, 4, 5) })
}

// Property: every strip has exactly one primary in [0, D), first among its
// holders, and replicas are distinct servers different from the primary,
// for all layouts.
func TestPlacementWellFormedProperty(t *testing.T) {
	prop := func(dRaw, rRaw, haloRaw uint8, stripRaw uint16) bool {
		d := int(dRaw%16) + 1
		r := int(rRaw%8) + 1
		halo := int(haloRaw%uint8(r)) + 1
		s := int64(stripRaw)
		for _, l := range []Layout{
			NewRoundRobin(d),
			NewGrouped(d, r),
			NewGroupedReplicated(d, r, halo),
			NewReplicatedRoundRobin(d, halo%min(d, 3)+1),
		} {
			p := l.Primary(s)
			if p < 0 || p >= l.Servers() {
				return false
			}
			if h := l.Holders(s); h.Len() < 1 || h.Len() > 3 || h.At(0) != p {
				return false
			}
			seen := map[int]bool{p: true}
			for _, rep := range replicaList(l.Holders(s)) {
				if rep < 0 || rep >= l.Servers() || seen[rep] {
					return false
				}
				seen[rep] = true
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: under GroupedReplicated, replicas live only on the servers
// adjacent (mod D) to the primary.
func TestReplicasAreAdjacentProperty(t *testing.T) {
	prop := func(dRaw, rRaw uint8, stripRaw uint16) bool {
		d := int(dRaw%14) + 3 // at least 3 so adjacency is meaningful
		r := int(rRaw%8) + 1
		l := NewGroupedReplicated(d, r, 1)
		s := int64(stripRaw)
		p := l.Primary(s)
		prev, next := (p+d-1)%d, (p+1)%d
		for _, rep := range replicaList(l.Holders(s)) {
			if rep != prev && rep != next {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
