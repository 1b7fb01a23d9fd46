// Package layout implements the strip-placement arithmetic at the heart of
// the DAS paper: which storage server holds which strip of a striped file,
// under the default round-robin policy (Eqs. (1)–(4)) and under the
// paper's improved, dependence-aware distribution that groups r successive
// strips per server and replicates group-boundary strips onto the adjacent
// servers (Eqs. (14)–(16), Figs. 7–9).
package layout

import (
	"fmt"
	"math"
)

// Layout maps strip indices of one file onto storage servers. Server ids
// are dense indices 0..Servers()-1; callers translate them to node ids.
type Layout interface {
	// Name identifies the policy for reports and metadata.
	Name() string
	// Servers returns D, the number of storage servers strips spread over.
	Servers() int
	// Primary returns the server owning strip s. The primary is the server
	// responsible for processing the strip under active storage.
	Primary(s int64) int
	// Holders returns every server storing strip s: Primary(s) first,
	// then the servers holding read-only copies, if any.
	Holders(s int64) Holders
}

// Holders is the set of servers storing one strip: its primary, then its
// replicas in ascending server order — at most two, since Eqs. (14)–(16)
// copy a strip to its two neighbouring servers at most. It is a value,
// built without allocating and comparable with ==.
type Holders struct {
	primary, lo, hi int // lo, hi: the replicas, -1 where there is none
}

// only is the holder set of a strip stored on its primary alone.
func only(primary int) Holders { return Holders{primary, -1, -1} }

// with adds replica srv in ascending order. A server already in the set —
// the primary a tiny D folds a neighbour onto, or a neighbour named twice
// — is not added again.
func (h Holders) with(srv int) Holders {
	switch {
	case h.Has(srv):
	case h.lo < 0:
		h.lo = srv
	case srv < h.lo:
		h.lo, h.hi = srv, h.lo
	default:
		h.hi = srv
	}
	return h
}

// Len returns how many servers store the strip; Len() > 1 when it has a
// replica.
func (h Holders) Len() int {
	switch {
	case h.lo < 0:
		return 1
	case h.hi < 0:
		return 2
	}
	return 3
}

// At returns holder i, i in [0, Len()): the primary at 0.
func (h Holders) At(i int) int {
	switch {
	case i == 0:
		return h.primary
	case i == 1 && h.lo >= 0:
		return h.lo
	case i == 2 && h.hi >= 0:
		return h.hi
	}
	panic(fmt.Sprintf("layout: holder %d of %d", i, h.Len()))
}

// Has reports whether server srv stores the strip, as primary or replica.
func (h Holders) Has(srv int) bool {
	return srv >= 0 && (srv == h.primary || srv == h.lo || srv == h.hi)
}

// RoundRobin is the default parallel-file-system policy: strip s lives on
// server (s + Start) mod D — the paper's Eq. (2) for a file whose strip 0
// sits on server Start. The paper stripes one file from server 0; a file
// system holding many files starts each on its own server, so that their
// first strips do not all queue on one disk.
type RoundRobin struct {
	D     int // number of storage servers
	Start int // server holding strip 0, in [0, D)
}

// NewRoundRobin returns the default policy over d servers.
func NewRoundRobin(d int) RoundRobin {
	mustServers(d)
	return RoundRobin{D: d}
}

func (r RoundRobin) Name() string {
	return fmt.Sprintf("round-robin(D=%d%s)", r.D, startSuffix(r.Start))
}
func (r RoundRobin) Servers() int            { return r.D }
func (r RoundRobin) Primary(s int64) int     { return rotate(s, r.Start, r.D) }
func (r RoundRobin) Holders(s int64) Holders { return only(r.Primary(s)) }

// Grouped places r successive strips on the same server: strip s lives on
// server (s/r + Start) mod D (paper Eq. (14) without replication). It
// reduces but does not eliminate cross-server dependence: dependencies
// still cross at every group boundary.
type Grouped struct {
	D     int // number of storage servers
	R     int // strips per group
	Start int // server holding group 0, in [0, D)
}

// NewGrouped returns a grouped policy with r strips per group.
func NewGrouped(d, r int) Grouped {
	mustServers(d)
	mustGroup(r)
	return Grouped{D: d, R: r}
}

func (g Grouped) Name() string {
	return fmt.Sprintf("grouped(D=%d,r=%d%s)", g.D, g.R, startSuffix(g.Start))
}
func (g Grouped) Servers() int            { return g.D }
func (g Grouped) Primary(s int64) int     { return rotate(s/int64(g.R), g.Start, g.D) }
func (g Grouped) Holders(s int64) Holders { return only(g.Primary(s)) }

// GroupedReplicated is the paper's improved data distribution: r
// successive strips per server, with the strips nearest each group
// boundary additionally replicated to the neighboring server, so that the
// dependence window of every element resolves locally (Fig. 9). The paper
// replicates exactly the first and last strip of each group (Halo = 1); we
// generalize to Halo ≥ 1 consecutive strips at each boundary, required
// when the dependence span of a kernel exceeds one strip (e.g. an
// 8-neighbor stencil on rows wider than one strip). Capacity overhead is
// 2·Halo/r relative to an unreplicated layout. Group g lives on server
// (g + Start) mod D, and its replicas rotate with it.
type GroupedReplicated struct {
	D     int // number of storage servers
	R     int // strips per group
	Halo  int // boundary strips replicated to each adjacent server
	Start int // server holding group 0, in [0, D)
}

// NewGroupedReplicated returns the improved distribution. Halo must be at
// least 1 and at most R: replicating more strips than a group holds would
// mean full mirroring and is almost certainly a configuration error.
func NewGroupedReplicated(d, r, halo int) GroupedReplicated {
	mustServers(d)
	mustGroup(r)
	if halo < 1 || halo > r {
		panic(fmt.Sprintf("layout: halo %d out of range [1,%d]", halo, r))
	}
	return GroupedReplicated{D: d, R: r, Halo: halo}
}

func (g GroupedReplicated) Name() string {
	return fmt.Sprintf("grouped-replicated(D=%d,r=%d,halo=%d%s)", g.D, g.R, g.Halo, startSuffix(g.Start))
}
func (g GroupedReplicated) Servers() int        { return g.D }
func (g GroupedReplicated) Primary(s int64) int { return rotate(s/int64(g.R), g.Start, g.D) }

// Holders returns strip s's group server, then the adjacent servers
// holding copies of it: the previous server if s is within Halo of its
// group's start, the next server if within Halo of its group's end. With
// one or two servers the neighbours fold onto the primary or each other.
func (g GroupedReplicated) Holders(s int64) Holders {
	grp := s / int64(g.R)
	h := only(rotate(grp, g.Start, g.D))
	pos := mod(s, int64(g.R))
	if pos < int64(g.Halo) {
		h = h.with(rotate(grp-1, g.Start, g.D))
	}
	if pos >= int64(g.R-g.Halo) {
		h = h.with(rotate(grp+1, g.Start, g.D))
	}
	return h
}

// ReplicatedRoundRobin is HDFS-style placement: strip s's primary is
// server s mod D and Copies-1 replicas go to the following servers. It is
// not a DAS layout — dependence stays remote — but models the output
// replication a MapReduce/DFS stack pays, for the §II-C comparison.
type ReplicatedRoundRobin struct {
	D      int // number of storage servers
	Copies int // total copies per strip, including the primary
}

// NewReplicatedRoundRobin returns the policy; copies must be in
// [1, min(D, 3)].
func NewReplicatedRoundRobin(d, copies int) ReplicatedRoundRobin {
	mustServers(d)
	if hi := min(d, 3); copies < 1 || copies > hi {
		panic(fmt.Sprintf("layout: copies %d out of range [1,%d]", copies, hi))
	}
	return ReplicatedRoundRobin{D: d, Copies: copies}
}

func (r ReplicatedRoundRobin) Name() string {
	return fmt.Sprintf("replicated-round-robin(D=%d,copies=%d)", r.D, r.Copies)
}
func (r ReplicatedRoundRobin) Servers() int        { return r.D }
func (r ReplicatedRoundRobin) Primary(s int64) int { return int(mod(s, int64(r.D))) }

// Holders places the Copies-1 replicas on the following servers.
func (r ReplicatedRoundRobin) Holders(s int64) Holders {
	h := only(r.Primary(s))
	for i := 1; i < r.Copies; i++ {
		h = h.with(int(mod(s+int64(i), int64(r.D))))
	}
	return h
}

// StartingAt returns l with its strip 0 moved to server srv mod D: the
// arithmetic layouts (RoundRobin, Grouped, GroupedReplicated) rotate every
// strip's holders by the same offset, any other layout comes back
// unchanged. A rotation relabels servers and nothing else, so locality,
// overhead and every per-server count are those of l.
func StartingAt(l Layout, srv int) Layout {
	switch l := l.(type) {
	case RoundRobin:
		l.Start = int(mod(int64(srv), int64(l.D)))
		return l
	case Grouped:
		l.Start = int(mod(int64(srv), int64(l.D)))
		return l
	case GroupedReplicated:
		l.Start = int(mod(int64(srv), int64(l.D)))
		return l
	}
	return l
}

// Placer is the one placement rule: which live holder runs each strip of
// a dispatch wave (Fig. 2's Active Storage Client), for offload dispatch,
// pipeline waves and the cost model that prices them alike. A fresh strip
// runs on its primary while that is live. Any other — its primary down,
// its reply lost, a pipeline catch-up — runs on the live holder given the
// fewest strips so far in the wave, chosen once per run of consecutive
// strips sharing one holder set, ties in Holders order. In a wave given a
// share (Share), a run whose holder reaches it goes on, from the next
// strip, on the least-given live holder still below it, and stays whole
// where there is none. Place strips in ascending order, one Placer per
// wave.
type Placer struct {
	l      Layout
	live   func(srv int) bool
	given  []int   // strips placed on each server so far
	share  int     // strips one holder is given before a run splits; 0: no share
	run    Holders // the current run's holder set, its server and last strip
	runSrv int
	last   int64
}

// NewPlacer starts a wave over l's servers; live reports which are up.
func NewPlacer(l Layout, live func(srv int) bool) *Placer {
	return &Placer{l: l, live: live, given: make([]int, l.Servers()), last: -2}
}

// Share gives the wave of strips about to be placed its even share: its
// k strips over the h live servers that hold any of them, ⌈k ÷ h⌉ each.
// A redo wave takes one, so that no holder computes a whole run more than
// the others while one of them could take the rest.
func (pl *Placer) Share(wave []int64) {
	holds, h := make([]bool, len(pl.given)), 0
	for _, s := range wave {
		holders := pl.l.Holders(s)
		for i := 0; i < holders.Len(); i++ {
			if srv := holders.At(i); !holds[srv] && pl.live(srv) {
				holds[srv] = true
				h++
			}
		}
	}
	if h > 0 {
		pl.share = (len(wave) + h - 1) / h
	}
}

// Place returns the server that runs strip s; ok = false when no holder
// of s is live.
func (pl *Placer) Place(s int64, fresh bool) (srv int, ok bool) {
	if p := pl.l.Primary(s); fresh && pl.live(p) {
		pl.given[p]++
		return p, true
	}
	if holders := pl.l.Holders(s); s != pl.last+1 || holders != pl.run {
		pl.run, pl.runSrv = holders, pl.least(holders, math.MaxInt)
	} else if pl.share > 0 && pl.given[pl.runSrv] >= pl.share {
		if h := pl.least(holders, pl.share); h >= 0 {
			pl.runSrv = h
		}
	}
	if pl.runSrv < 0 {
		return 0, false
	}
	pl.last = s
	pl.given[pl.runSrv]++
	return pl.runSrv, true
}

// least returns the live holder given the fewest strips, ties in Holders
// order, among those given fewer than below; -1 when there is none.
func (pl *Placer) least(holders Holders, below int) int {
	srv := -1
	for i := 0; i < holders.Len(); i++ {
		if h := holders.At(i); pl.live(h) && pl.given[h] < below && (srv < 0 || pl.given[h] < pl.given[srv]) {
			srv = h
		}
	}
	return srv
}

// OverheadRatio returns the extra storage capacity a layout consumes as a
// fraction of the file size, averaged over many strips: 0 for
// non-replicated layouts, 2·Halo/r for GroupedReplicated (the paper's
// "2/r" with Halo = 1).
func OverheadRatio(l Layout) float64 {
	switch g := l.(type) {
	case GroupedReplicated:
		if g.D == 1 {
			return 0
		}
		// Per group the leading Halo strips copy to the previous server and
		// the trailing Halo to the next, 2·Halo copies in total — except
		// with two servers, where the neighbors coincide and a strip inside
		// both halos folds to a single copy: min(2·Halo, r) per group.
		if g.D == 2 {
			reps := 2 * g.Halo
			if reps > g.R {
				reps = g.R
			}
			return float64(reps) / float64(g.R)
		}
		return 2 * float64(g.Halo) / float64(g.R)
	default:
		return 0
	}
}

func mustServers(d int) {
	if d <= 0 {
		panic(fmt.Sprintf("layout: server count must be positive, got %d", d))
	}
}

func mustGroup(r int) {
	if r <= 0 {
		panic(fmt.Sprintf("layout: group size must be positive, got %d", r))
	}
}

// rotate places group (or strip) g of a file starting on server start.
func rotate(g int64, start, d int) int { return int(mod(g+int64(start), int64(d))) }

// startSuffix names a non-zero start in a layout's Name; a file starting on
// server 0 keeps the name it has always had.
func startSuffix(start int) string {
	if start == 0 {
		return ""
	}
	return fmt.Sprintf(",start=%d", start)
}

// mod is the non-negative remainder, defined for negative numerators so
// that "previous server" arithmetic wraps correctly (Go's % truncates
// toward zero).
func mod(a, m int64) int64 {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}
