package layout

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// arithmetic returns every arithmetic layout over d servers with groups of
// up to four strips and every halo a group admits.
func arithmetic(d int) []Layout {
	ls := []Layout{NewRoundRobin(d)}
	for r := 1; r <= 4; r++ {
		ls = append(ls, NewGrouped(d, r))
		for halo := 1; halo <= r; halo++ {
			ls = append(ls, NewGroupedReplicated(d, r, halo))
		}
	}
	return ls
}

// TestStartingAtRotatesEveryHolder: a file started on server k is the same
// file with every server relabelled by +k mod D — each strip's primary and
// replicas shift together, replicas stay ascending and distinct (the folds
// a tiny D makes are the same folds), and nothing a layout reports about
// itself but its name changes.
func TestStartingAtRotatesEveryHolder(t *testing.T) {
	for _, d := range []int{1, 2, 3, 12} {
		for _, l := range arithmetic(d) {
			period := int64(4 * d * 3) // three rotations of the widest group
			for k := 0; k < d; k++ {
				rot := StartingAt(l, k)
				name := fmt.Sprintf("%s at %d", l.Name(), k)
				if rot.Servers() != d {
					t.Fatalf("%s: %d servers", name, rot.Servers())
				}
				if got, want := OverheadRatio(rot), OverheadRatio(l); got != want {
					t.Errorf("%s: overhead %v, want %v", name, got, want)
				}
				if k == 0 && rot.Name() != l.Name() {
					t.Errorf("start 0 renamed %s to %s", l.Name(), rot.Name())
				}
				if k != 0 && !strings.Contains(rot.Name(), fmt.Sprintf(",start=%d)", k)) {
					t.Errorf("%s: name %s does not say where it starts", name, rot.Name())
				}
				if again := StartingAt(l, k+d); again.Name() != rot.Name() {
					t.Errorf("%s: start %d names %s, start %d names %s", name, k+d, again.Name(), k, rot.Name())
				}
				for s := int64(0); s < period; s++ {
					want := []int{(l.Primary(s) + k) % d}
					var reps []int
					for _, r := range replicaList(l.Holders(s)) {
						reps = append(reps, (r+k)%d)
					}
					sort.Ints(reps)
					want = append(want, reps...)
					if got := holderList(rot.Holders(s)); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s strip %d: holders %v, want %v (unrotated %v)", name, s, got, want, holderList(l.Holders(s)))
					}
				}
			}
		}
	}
}

// TestStartingAtLeavesOtherLayoutsAlone: a table, a migration and the
// HDFS-style replicated layout carry their placement already and come back
// as they went in.
func TestStartingAtLeavesOtherLayoutsAlone(t *testing.T) {
	table := NewTable(3, []Holders{only(2), only(0).with(1), only(1)})
	mig := NewMigrating(NewRoundRobin(3), NewGroupedReplicated(3, 2, 1), NewMoveSet(6))
	rrr := NewReplicatedRoundRobin(3, 2)
	for _, l := range []Layout{table, mig, rrr} {
		if got := StartingAt(l, 2); got != l {
			t.Errorf("StartingAt(%s, 2) = %s, want it unchanged", l.Name(), got.Name())
		}
	}
}
