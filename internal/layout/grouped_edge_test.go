package layout

import (
	"reflect"
	"slices"
	"testing"
)

// primaryOn and replicaOn list, ascending, the strips of an n-strip file
// whose primary is srv and that srv holds a replica of.
func primaryOn(l Layout, srv int, n int64) []int64 {
	return stripsWhere(n, func(s int64) bool { return l.Primary(s) == srv })
}

func replicaOn(l Layout, srv int, n int64) []int64 {
	return stripsWhere(n, func(s int64) bool { return slices.Contains(replicaList(l.Holders(s)), srv) })
}

func stripsWhere(n int64, keep func(s int64) bool) []int64 {
	var out []int64
	for s := int64(0); s < n; s++ {
		if keep(s) {
			out = append(out, s)
		}
	}
	return out
}

// TestReplicaStripsOfTruncatedLastGroup: a file whose strip count is not a
// multiple of the group size ends mid-group. The halo replicates group
// edges, not file edges, so the truncated group's existing edge strips
// still replicate to their neighbor while its missing tail contributes
// nothing.
func TestReplicaStripsOfTruncatedLastGroup(t *testing.T) {
	l := NewGroupedReplicated(2, 3, 1)
	const strips = 8 // groups: {0,1,2}→s0, {3,4,5}→s1, {6,7}→s0 (short)

	if got, want := primaryOn(l, 0, strips), []int64{0, 1, 2, 6, 7}; !reflect.DeepEqual(got, want) {
		t.Errorf("primaries on server 0 = %v, want %v", got, want)
	}
	if got, want := primaryOn(l, 1, strips), []int64{3, 4, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("primaries on server 1 = %v, want %v", got, want)
	}
	if got, want := replicaOn(l, 0, strips), []int64{3, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("replicas on server 0 = %v, want %v", got, want)
	}
	// Strip 6 is the short group's leading edge and still replicates back;
	// strip 7 sits mid-group (its trailing edge, strip 8, does not exist)
	// and has no copy anywhere else.
	if got, want := replicaOn(l, 1, strips), []int64{0, 2, 6}; !reflect.DeepEqual(got, want) {
		t.Errorf("replicas on server 1 = %v, want %v", got, want)
	}
	if reps := replicaList(l.Holders(7)); len(reps) != 0 {
		t.Errorf("replicas of 7 = %v, want none: the halo guards group edges, not file edges", reps)
	}
}

// TestHaloEqualsGroupSizeMirrorsEverything: halo == r is the
// crash-survivable configuration — every strip, interior included, is
// mirrored to both neighboring servers.
func TestHaloEqualsGroupSizeMirrorsEverything(t *testing.T) {
	l := NewGroupedReplicated(4, 2, 2)
	for s := int64(0); s < 16; s++ {
		reps := replicaList(l.Holders(s))
		if len(reps) != 2 {
			t.Fatalf("strip %d: replicas %v, want both neighbors", s, reps)
		}
		p := l.Primary(s)
		for _, r := range reps {
			if r == p {
				t.Fatalf("strip %d: replica list %v contains primary %d", s, reps, p)
			}
		}
		// Any single crash must leave a live copy.
		for down := 0; down < 4; down++ {
			if !slices.ContainsFunc(holderList(l.Holders(s)), func(srv int) bool { return srv != down }) {
				t.Fatalf("strip %d unreachable with only server %d down", s, down)
			}
		}
	}
	// With two servers the previous and next neighbor are the same node, so
	// full mirroring collapses to a single replica rather than listing it
	// twice.
	l2 := NewGroupedReplicated(2, 2, 2)
	for s := int64(0); s < 8; s++ {
		reps := replicaList(l2.Holders(s))
		if len(reps) != 1 || reps[0] == l2.Primary(s) {
			t.Fatalf("D=2 strip %d: replicas %v, want exactly the other server", s, reps)
		}
	}
	// A single server already holds everything; no replicas at all.
	if reps := replicaList(NewGroupedReplicated(1, 2, 2).Holders(3)); len(reps) != 0 {
		t.Errorf("D=1 replicas = %v, want none", reps)
	}
}

// TestSingleGroupFile: a file small enough to fit inside the first group
// lives entirely on server 0. Only its leading halo reaches another server
// (the wrap-around predecessor); nothing maps to the middle servers, and
// interior strips vanish with server 0.
func TestSingleGroupFile(t *testing.T) {
	l := NewGroupedReplicated(4, 8, 2)
	const strips = 5 // group 0 only, and even that is short

	if got, want := primaryOn(l, 0, strips), []int64{0, 1, 2, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("primaries on server 0 = %v, want %v", got, want)
	}
	for srv := 1; srv <= 2; srv++ {
		if got := primaryOn(l, srv, strips); len(got) != 0 {
			t.Errorf("primaries on server %d = %v, want none", srv, got)
		}
		if got := replicaOn(l, srv, strips); len(got) != 0 {
			t.Errorf("replicas on server %d = %v, want none", srv, got)
		}
	}
	// The leading halo (strips 0,1) wraps to the predecessor server 3.
	if got, want := replicaOn(l, 3, strips), []int64{0, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("replicas on server 3 = %v, want %v", got, want)
	}
	// Interior strip 4 has no second copy: with server 0 down it is gone.
	if slices.ContainsFunc(holderList(l.Holders(4)), func(srv int) bool { return srv != 0 }) {
		t.Error("interior strip of a single-group file survived its only holder")
	}
}

// TestPlacerRule pins the one placement rule: a fresh strip runs on its
// live primary; any other strip runs on the live holder given the fewest
// strips so far in the wave, chosen once per run of consecutive strips
// sharing a holder set, ties in Holders order; no live holder is ok =
// false. In a wave given its share (a redo wave), a run whose holder
// reaches it goes on with the least-given live holder still below it,
// and stays whole where every holder has it.
func TestPlacerRule(t *testing.T) {
	mirrored := NewGroupedReplicated(4, 2, 2) // group g: holders [g, g-1, g+1]
	edges := NewGroupedReplicated(4, 4, 2)    // strips 4g, 4g+1: [g, g-1]; 4g+2, 4g+3: [g, g+1]
	type place struct {
		s     int64
		fresh bool
		want  int // -1: no live holder
	}
	// catchUp is server 1's first n groups on mirrored, two-strip runs
	// over holders [1, 0, 2] as a crash's catch-up wave carries them, the
	// strips placed on srvs in turn.
	catchUp := func(n int, srvs ...int) []place {
		var steps []place
		for j := 0; j < n; j++ {
			g := int64(1 + 4*j)
			steps = append(steps, place{2 * g, false, srvs[2*j]}, place{2*g + 1, false, srvs[2*j+1]})
		}
		return steps
	}
	for _, tc := range []struct {
		name  string
		l     Layout
		down  []int
		share bool // the placer takes the share of the wave of steps' strips
		steps []place
	}{
		{"fresh strips run on their primaries", mirrored, nil, false,
			[]place{{0, true, 0}, {1, true, 0}, {2, true, 1}, {3, true, 1}, {6, true, 3}}},
		{"a down primary's strips go to the least-loaded live holder", mirrored, []int{1}, false,
			[]place{{0, true, 0}, {1, true, 0}, {2, true, 2}, {3, true, 2}, {4, true, 2}, {5, true, 2},
				{6, true, 3}, {7, true, 3}, {8, true, 0}, {9, true, 0}, {10, true, 0}, {11, true, 0}}},
		{"one choice per run: the run stays put as its holder's count grows", mirrored, nil, false,
			[]place{{2, false, 1}, {3, false, 1}}},
		{"ties go in Holders order", mirrored, nil, false,
			[]place{{4, false, 2}, {5, false, 2}, {2, false, 1}, {6, false, 3}}},
		{"a new holder set starts a new run", mirrored, nil, false,
			[]place{{2, false, 1}, {3, false, 1}, {4, false, 2}, {5, false, 2}, {6, false, 3}, {7, false, 3}, {8, false, 0}}},
		{"a gap starts a new run", mirrored, nil, false,
			[]place{{2, false, 1}, {10, false, 0}, {11, false, 0}, {18, false, 2}}},
		{"a lost strip may run on its live primary", NewReplicatedRoundRobin(4, 3), nil, false,
			[]place{{1, false, 1}, {2, true, 2}, {5, false, 3}}},
		{"no live holder", mirrored, []int{0, 1, 2}, false,
			[]place{{2, true, -1}, {3, false, -1}, {6, true, 3}}},
		// 20 strips over 3 holders: a share of 7, so the tenth run splits
		// once its holder has 7 and the wave goes 7/7/6, not 8/6/6.
		{"ten runs over three holders: one run splits at the share", mirrored, nil, true,
			catchUp(10, 1, 1, 0, 0, 2, 2, 1, 1, 0, 0, 2, 2, 1, 1, 0, 0, 2, 2, 1, 0)},
		{"nine runs over three holders: 3/3/3, none split", mirrored, nil, true,
			catchUp(9, 1, 1, 0, 0, 2, 2, 1, 1, 0, 0, 2, 2, 1, 1, 0, 0, 2, 2)},
		// 6 strips over holders 0, 1 and 3: a share of 2, which both of
		// strips 4-5's holders have reached before the run starts.
		{"a run stays on one server when every holder has its share", edges, nil, true,
			[]place{{0, false, 0}, {1, false, 0}, {2, false, 1}, {3, false, 1}, {4, false, 1}, {5, false, 1}}},
		{"fresh strips run on their live primary past the share", edges, nil, true,
			[]place{{0, true, 0}, {1, true, 0}, {2, true, 0}, {3, true, 0}}},
	} {
		down := map[int]bool{}
		for _, d := range tc.down {
			down[d] = true
		}
		pl := NewPlacer(tc.l, func(srv int) bool { return !down[srv] })
		if tc.share {
			var wave []int64
			for _, st := range tc.steps {
				wave = append(wave, st.s)
			}
			pl.Share(wave)
		}
		for i, st := range tc.steps {
			srv, ok := pl.Place(st.s, st.fresh)
			if !ok {
				srv = -1
			}
			if srv != st.want {
				t.Errorf("%s: step %d: Place(%d, fresh=%v) = %d, want %d", tc.name, i, st.s, st.fresh, srv, st.want)
			}
		}
	}
}

// TestSingleStripGroups: r=1 is the degenerate grouping where grouped
// placement collapses back to round-robin and every strip is a group edge,
// so with halo=1 every strip replicates to both neighbors (one neighbor
// when D=2 folds them together).
func TestSingleStripGroups(t *testing.T) {
	l := NewGroupedReplicated(4, 1, 1)
	for s := int64(0); s < 12; s++ {
		if got, want := l.Primary(s), int(s%4); got != want {
			t.Errorf("r=1 Primary(%d) = %d, want round-robin %d", s, got, want)
		}
		if got, want := holderList(l.Holders(s)), []int{int(s % 4), int(mod(s-1, 4)), int(mod(s+1, 4))}; len(got) != 3 {
			t.Errorf("r=1 Holders(%d) = %v, want primary + both neighbors %v", s, got, want)
		}
		for srv := 0; srv < 4; srv++ {
			wantHolds := srv == int(s%4) || srv == int(mod(s-1, 4)) || srv == int(mod(s+1, 4))
			if got := l.Holders(s).Has(srv); got != wantHolds {
				t.Errorf("r=1 Holds(%d, %d) = %v, want %v", s, srv, got, wantHolds)
			}
		}
	}
	if got := OverheadRatio(l); got != 2 {
		t.Errorf("r=1 halo=1 D=4 overhead = %v, want 2 (full double mirroring)", got)
	}
	// D=2 folds prev and next into one server: one replica per strip, so
	// the overhead is 1.0 — min(2·Halo, r)/r — not the naive 2·Halo/r.
	l2 := NewGroupedReplicated(2, 1, 1)
	for s := int64(0); s < 6; s++ {
		if reps := replicaList(l2.Holders(s)); len(reps) != 1 || reps[0] == l2.Primary(s) {
			t.Fatalf("D=2 r=1 strip %d: replicas %v, want exactly the other server", s, reps)
		}
	}
	if got := OverheadRatio(l2); got != 1 {
		t.Errorf("r=1 halo=1 D=2 overhead = %v, want 1 (neighbors coincide)", got)
	}
	if got := OverheadRatio(NewGroupedReplicated(1, 1, 1)); got != 0 {
		t.Errorf("D=1 overhead = %v, want 0", got)
	}
}

// TestHaloEqualsGroupOverhead: halo == r (the constructor's cap, full
// mirroring to both neighbors) and partial halos must report the storage
// they actually consume.
func TestHaloEqualsGroupOverhead(t *testing.T) {
	cases := []struct {
		d, r, halo int
		want       float64
	}{
		{4, 2, 2, 2.0}, // every strip on both neighbors
		{4, 4, 1, 0.5}, // the paper's 2/r with r=4
		{4, 3, 2, 4.0 / 3},
		{2, 2, 2, 1.0}, // D=2: both-neighbor copies fold to one
		{2, 3, 2, 1.0}, // D=2: strip 1 of each group sits in both halos
		{2, 4, 1, 0.5}, // D=2 but halos don't overlap: unaffected
		{1, 2, 2, 0},   // single server, no replicas at all
	}
	for _, c := range cases {
		l := NewGroupedReplicated(c.d, c.r, c.halo)
		if got := OverheadRatio(l); got != c.want {
			t.Errorf("OverheadRatio(D=%d,r=%d,halo=%d) = %v, want %v", c.d, c.r, c.halo, got, c.want)
		}
		// The formula must agree with the placement it summarizes: count
		// actual replica copies over one full rotation of groups.
		strips := int64(c.r * c.d * 2)
		var copies int64
		for s := int64(0); s < strips; s++ {
			copies += int64(len(replicaList(l.Holders(s))))
		}
		if got := float64(copies) / float64(strips); got != c.want {
			t.Errorf("counted overhead (D=%d,r=%d,halo=%d) = %v, want %v", c.d, c.r, c.halo, got, c.want)
		}
	}
}

// TestHoldersTruncatedGroup: strips % r != 0 leaves the last group short;
// the holder set must stay primary first, replicas ascending there, and the short
// group's trailing edge (which exists) still mirrors forward.
func TestHoldersTruncatedGroup(t *testing.T) {
	l := NewGroupedReplicated(3, 3, 1)
	// 7 strips: groups {0,1,2}→s0, {3,4,5}→s1, {6}→s2 (short)

	// Strip 6 sits at position 0 of its nominal group: its leading halo
	// replicates back to the previous server (1), but the trailing edge of
	// the group (strip 8) does not exist — the halo guards group positions,
	// not file ends, so no copy goes forward to server 0.
	if got, want := holderList(l.Holders(6)), []int{2, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("Holders(6) = %v, want %v", got, want)
	}
	if !l.Holders(6).Has(2) || !l.Holders(6).Has(1) || l.Holders(6).Has(0) {
		t.Errorf("Holds(6, ·) = %v,%v,%v over servers 2,1,0; want true,true,false",
			l.Holders(6).Has(2), l.Holders(6).Has(1), l.Holders(6).Has(0))
	}
	// Mid-group strip 4 has no replicas; only its primary holds it.
	if got, want := holderList(l.Holders(4)), []int{1}; !reflect.DeepEqual(got, want) {
		t.Errorf("Holders(4) = %v, want %v", got, want)
	}
	if l.Holders(4).Has(0) || l.Holders(4).Has(2) {
		t.Error("mid-group strip 4 held by a non-primary server")
	}
	// Holders order is primary first, then replicas ascending.
	if got, want := holderList(l.Holders(3)), []int{1, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("Holders(3) = %v, want %v", got, want)
	}
	if got, want := holderList(l.Holders(5)), []int{1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("Holders(5) = %v, want %v", got, want)
	}
}

// TestRequiredHaloBoundaries: exact strip multiples must not round up, and
// sub-element reaches still demand a full halo strip.
func TestRequiredHaloBoundaries(t *testing.T) {
	lc := NewLocator(8, 64, NewRoundRobin(4)) // 8 elements per strip
	cases := []struct {
		off  int64
		want int
	}{
		{-3, 0}, // negative reach means no dependence
		{0, 0},  // independence
		{7, 1},  // strictly inside one strip width
		{8, 1},  // exactly one strip: 64 bytes, no round-up
		{24, 3}, // exactly three strips
		{25, 4}, // one element past three strips rounds up
		{800, 100},
	}
	for _, c := range cases {
		if got := lc.RequiredHalo(c.off); got != c.want {
			t.Errorf("RequiredHalo(%d) = %d, want %d", c.off, got, c.want)
		}
	}
}
