// Package cache implements the adaptive halo-strip cache subsystem: a
// bounded, byte-budgeted LRU cache per storage server holding the *remote*
// strips the server fetched to satisfy dependence halos during offloaded
// execution, plus a cluster-wide manager (manager.go) that keeps each
// server's hit window and runs the promote/demote passes the unified p99
// controller (internal/control) calls.
//
// The paper's improved distribution (Eqs. 14–17) fixes group size r and
// the boundary replicas at file-creation time; a workload whose hotspot
// drifts still pays remote fetches for dependent strips — the
// server↔server traffic Fig. 6 shows killing NAS. The cache absorbs that
// traffic after the first pass, and the controller's percentile trigger
// (after DynamicCache's shard manager, recast onto strips) turns the
// hottest cached boundary strips into pinned replicas on the dependent
// server.
//
// Correctness rules:
//
//   - An entry holds what the fetch returned by reference: a window of
//     the owner's stored strip, immutable and lent (pfs.ReadStripFrom).
//     The cache never writes it, Get hands the same window on, and the
//     budget counts the bytes an entry stands for. A hit taken before an
//     eviction, invalidation or restart purge keeps reading what it read.
//   - A write to a strip invalidates every cached copy of it cluster-wide
//     (the pfs write path calls Manager.InvalidateStrip from storePut).
//   - A server restart purges its cache: caches are memory, and PR 2's
//     incarnation counters make the purge lazy and deterministic — the
//     first access after a bump drops everything.
//   - All state is engine-goroutine state, eviction order lives in a list,
//     and all timestamps are DES times: two identical runs produce
//     identical stats and identical victims.
package cache

import (
	"container/list"
	"fmt"

	"github.com/hpcio/das/internal/metrics"
)

// Key addresses one cached strip of one file.
type Key struct {
	File  string
	Strip int64
}

// entry is one resident strip range: bytes [Lo, Hi) of the strip,
// relative to the strip's start.
type entry struct {
	key     Key
	data    []byte
	lo, hi  int64
	pinned  bool
	elem    *list.Element // its place in the LRU order
	winHits int64         // hits since the controller last closed the window
	fetched bool          // a remote fetch (re)admitted it this window
}

func (e *entry) size() int64 { return e.hi - e.lo }

// Stats is a point-in-time snapshot of one server cache.
type Stats struct {
	Server        int     `json:"server"`
	Entries       int     `json:"entries"`
	UsedBytes     int64   `json:"used_bytes"`
	PinnedEntries int     `json:"pinned_entries"`
	PinnedBytes   int64   `json:"pinned_bytes"`
	Hits          int64   `json:"hits"`
	Misses        int64   `json:"misses"`
	HitBytes      int64   `json:"hit_bytes"`
	MissBytes     int64   `json:"miss_bytes"`
	Evictions     int64   `json:"evictions"`
	Invalidations int64   `json:"invalidations"`
	Promotions    int64   `json:"promotions"`
	Demotions     int64   `json:"demotions"`
	HitRate       float64 `json:"hit_rate"`
}

// ServerCache is the bounded halo-strip cache of one storage server. It
// is engine-goroutine state: no locks, no wall clock, no map-order
// iteration on any decision path. Eviction is least-recently-used among
// the unpinned entries.
type ServerCache struct {
	srv    int
	budget int64
	// maxPinned caps pinned bytes so pins cannot starve the adaptive part
	// of the cache.
	maxPinned int64

	entries map[Key]*entry
	lru     *list.List // of *entry; front = most recently admitted or hit
	used    int64
	pinned  int64

	// incarnation gate: incFn reports the server's current incarnation;
	// a change since the last access means the server restarted and its
	// cache memory is gone.
	incFn func() uint64
	inc   uint64

	// n holds this server's handles on the cache.* counters.
	n counters

	// winHits counts hits since the controller last closed the window.
	winHits int64
}

// counters are one server's handles on the registry's cache.* counters,
// labelled by the server.
type counters struct {
	hits, misses, hitBytes, missBytes *metrics.Counter
	evictions, invalidations          *metrics.Counter
	promotions, demotions             *metrics.Counter
}

// newServerCache builds one server's cache, counting into reg under the
// server's label.
func newServerCache(srv int, budget, maxPinned int64, incFn func() uint64, reg *metrics.Registry) *ServerCache {
	if incFn == nil {
		incFn = func() uint64 { return 0 }
	}
	count := func(name string) *metrics.Counter { return reg.ServerCounter("cache."+name, srv) }
	c := &ServerCache{
		srv:       srv,
		budget:    budget,
		maxPinned: maxPinned,
		entries:   make(map[Key]*entry),
		lru:       list.New(),
		incFn:     incFn,
		n: counters{
			hits: count("hits"), misses: count("misses"), hitBytes: count("hit_bytes"), missBytes: count("miss_bytes"),
			evictions: count("evictions"), invalidations: count("invalidations"),
			promotions: count("promotions"), demotions: count("demotions"),
		},
	}
	c.inc = incFn()
	return c
}

// checkIncarnation lazily purges the cache when the server restarted
// since the last access: cache memory does not survive a crash, even
// though the simulated disk does. The hit window dies with it, so the
// controller never reads pre-crash hits as post-restart evidence.
func (c *ServerCache) checkIncarnation() {
	cur := c.incFn()
	if cur == c.inc {
		return
	}
	c.inc = cur
	c.winHits = 0
	if len(c.entries) == 0 {
		return
	}
	clear(c.entries)
	c.lru.Init()
	c.used, c.pinned = 0, 0
}

// Get looks up bytes [lo, hi) of a strip (relative to the strip start)
// and, on a hit, returns them as a window of the entry, lent as the fetch
// that admitted it was: read-only, nothing to release. A resident entry
// only hits when it covers the whole requested range.
func (c *ServerCache) Get(file string, strip, lo, hi int64) ([]byte, bool) {
	c.checkIncarnation()
	e, ok := c.entries[Key{File: file, Strip: strip}]
	if !ok || lo < e.lo || hi > e.hi {
		return nil, false
	}
	e.winHits++
	c.winHits++
	c.lru.MoveToFront(e.elem)
	c.n.hits.Inc()
	c.n.hitBytes.Add(hi - lo)
	return e.data[lo-e.lo : hi-e.lo : hi-e.lo], true
}

// RecordMiss accounts a lookup the cache could not serve; bytes is what
// the remote fetch moved.
func (c *ServerCache) RecordMiss(bytes int64) {
	c.n.misses.Inc()
	c.n.missBytes.Add(bytes)
}

// Put admits bytes [lo, hi) of a strip (relative to the strip start).
// The cache keeps data by reference, so it must be immutable: a lent read
// result. Entries larger than the budget are not admitted. An existing
// entry for the key is replaced only when the new range covers more bytes
// and fits; a pinned one stays pinned while the pin budget has room for
// the wider range, and is demoted otherwise.
func (c *ServerCache) Put(file string, strip, lo int64, data []byte) {
	c.checkIncarnation()
	size := int64(len(data))
	if size == 0 || size > c.budget {
		return
	}
	k := Key{File: file, Strip: strip}
	old := c.entries[k]
	var freed int64
	if old != nil {
		if size <= old.size() {
			return // resident range already covers at least as much
		}
		freed = old.size()
	}
	for c.used-freed+size > c.budget {
		v := c.victim(old)
		if v == nil {
			return // everything else is pinned: keep what is resident
		}
		c.remove(v)
		c.n.evictions.Inc()
	}
	e := &entry{key: k, data: data, lo: lo, hi: lo + size, fetched: true}
	if old != nil {
		c.remove(old)
		if old.pinned {
			if c.pinned+size <= c.maxPinned {
				e.pinned = true
				c.pinned += size
			} else {
				c.n.demotions.Inc()
			}
		}
	}
	c.entries[k] = e
	e.elem = c.lru.PushFront(e)
	c.used += size
}

// victim returns the least-recently-used unpinned entry other than keep,
// or nil when there is none.
func (c *ServerCache) victim(keep *entry) *entry {
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		if e := el.Value.(*entry); !e.pinned && e != keep {
			return e
		}
	}
	return nil
}

// remove is the one exit of a resident entry: it settles the byte
// accounting and lets the entry's window go. Hits already taken keep
// theirs.
func (c *ServerCache) remove(e *entry) {
	c.lru.Remove(e.elem)
	delete(c.entries, e.key)
	c.used -= e.size()
	if e.pinned {
		c.pinned -= e.size()
	}
}

// Invalidate drops any cached copy of a strip (its data changed).
func (c *ServerCache) Invalidate(file string, strip int64) {
	c.checkIncarnation()
	if e, ok := c.entries[Key{File: file, Strip: strip}]; ok {
		c.remove(e)
		c.n.invalidations.Inc()
	}
}

// InvalidateFile drops every cached strip of a file (file deleted or
// migrated). Removal order does not matter: what remains keeps its LRU
// order.
func (c *ServerCache) InvalidateFile(file string) {
	c.checkIncarnation()
	for k, e := range c.entries {
		if k.File == file {
			c.remove(e)
			c.n.invalidations.Inc()
		}
	}
}

// Pin protects a resident strip from eviction — the "pinned replica on
// the dependent server" a promote pass turns a hot boundary strip into.
// It reports whether the strip was resident and is now pinned.
func (c *ServerCache) Pin(file string, strip int64) bool {
	c.checkIncarnation()
	e, ok := c.entries[Key{File: file, Strip: strip}]
	if !ok {
		return false
	}
	if e.pinned {
		return true
	}
	if c.pinned+e.size() > c.maxPinned {
		return false
	}
	e.pinned = true
	c.pinned += e.size()
	c.n.promotions.Inc()
	return true
}

// Unpin releases a pinned strip back to LRU eviction.
func (c *ServerCache) Unpin(file string, strip int64) bool {
	c.checkIncarnation()
	e, ok := c.entries[Key{File: file, Strip: strip}]
	if !ok || !e.pinned {
		return false
	}
	e.pinned = false
	c.pinned -= e.size()
	c.n.demotions.Inc()
	return true
}

// Pinned reports whether a resident strip is pinned.
func (c *ServerCache) Pinned(file string, strip int64) bool {
	e, ok := c.entries[Key{File: file, Strip: strip}]
	return ok && e.pinned
}

// Holds reports whether the cache currently covers any bytes of a strip.
func (c *ServerCache) Holds(file string, strip int64) bool {
	c.checkIncarnation()
	_, ok := c.entries[Key{File: file, Strip: strip}]
	return ok
}

// UsedBytes returns the resident byte total.
func (c *ServerCache) UsedBytes() int64 { return c.used }

// Snapshot returns the server's current statistics: its residency, and
// its label of the registry's cache.* counters.
func (c *ServerCache) Snapshot() Stats {
	s := Stats{
		Server: c.srv, Entries: len(c.entries), UsedBytes: c.used, PinnedBytes: c.pinned,
		Hits: c.n.hits.Load(), Misses: c.n.misses.Load(), HitBytes: c.n.hitBytes.Load(), MissBytes: c.n.missBytes.Load(),
		Evictions: c.n.evictions.Load(), Invalidations: c.n.invalidations.Load(),
		Promotions: c.n.promotions.Load(), Demotions: c.n.demotions.Load(),
	}
	for _, e := range c.entries {
		if e.pinned {
			s.PinnedEntries++
		}
	}
	if s.Hits+s.Misses > 0 {
		s.HitRate = float64(s.Hits) / float64(s.Hits+s.Misses)
	}
	return s
}

// String renders a one-line summary for reports.
func (s Stats) String() string {
	return fmt.Sprintf("server %d: %d entries (%d pinned), %s used, hits=%d misses=%d (%.0f%%), evict=%d inval=%d promo=%d demo=%d",
		s.Server, s.Entries, s.PinnedEntries, metrics.FormatBytes(s.UsedBytes),
		s.Hits, s.Misses, 100*s.HitRate, s.Evictions, s.Invalidations, s.Promotions, s.Demotions)
}
