package restripe

import (
	"sort"

	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/pfs"
)

// move is one strip's migration step and the unit the persisted cursor
// counts in. A move is re-executed until it commits: failures against
// crashed servers mark it failed (the resume counter fires when it finally
// commits), and writes landing mid-copy mark it dirty (the copy is
// discarded and repeated).
type move struct {
	strip int64
	// estBytes is the planner's copy estimate, used only for ordering; the
	// copier recomputes actual bytes against live server holdings.
	estBytes int64
	done     bool
	failed   bool
	dirty    bool
	inflight bool
	// expect counts the strip-invalidations the move's own target writes
	// will fire; invalidations beyond it are foreign writes and dirty the
	// move.
	expect int
	// reship names target servers that received bytes from an attempt that
	// did not commit (dirtied by a foreign write, or failed mid-push).
	// Their copies may predate a later write — foreign writes to an
	// un-flipped strip refresh only the old placement's holders — so
	// resolve re-ships them even though they already hold the strip.
	reship map[int]bool
}

// markReship records targets of a discarded attempt for forced re-copy.
func (mv *move) markReship(targets []int) {
	if len(targets) == 0 {
		return
	}
	if mv.reship == nil {
		mv.reship = make(map[int]bool, len(targets))
	}
	for _, t := range targets {
		mv.reship[t] = true
	}
}

// planMoves orders a migration's strip moves to minimize cross-server
// traffic: moves whose target holders all already hold a copy (the halo
// replicas the old layout happened to place, or a previous interrupted
// run) are pure metadata flips and go first; the remaining copy moves are
// interleaved round-robin across their source servers so the copy traffic
// spreads over every NIC and disk instead of draining one server at a
// time. The order is fully deterministic.
func planMoves(meta *pfs.FileMeta, old layout.Layout, target layout.Layout) []*move {
	strips := meta.Strips()
	var flips []*move
	buckets := make(map[int][]*move)
	var srcs []int
	for s := int64(0); s < strips; s++ {
		lo, hi := meta.StripBounds(s)
		was, to := old.Holders(s), target.Holders(s)
		var est int64
		for i := 0; i < to.Len(); i++ {
			if !was.Has(to.At(i)) {
				est += hi - lo
			}
		}
		mv := &move{strip: s, estBytes: est}
		if est == 0 {
			flips = append(flips, mv)
			continue
		}
		src := old.Primary(s)
		if _, seen := buckets[src]; !seen {
			srcs = append(srcs, src)
		}
		buckets[src] = append(buckets[src], mv)
	}
	sort.Ints(srcs)
	plan := flips
	for {
		advanced := false
		for _, src := range srcs {
			if q := buckets[src]; len(q) > 0 {
				plan = append(plan, q[0])
				buckets[src] = q[1:]
				advanced = true
			}
		}
		if !advanced {
			return plan
		}
	}
}
