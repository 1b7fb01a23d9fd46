package cache

import (
	"bytes"
	"runtime"
	"slices"
	"testing"

	"github.com/hpcio/das/internal/bufpool"
	"github.com/hpcio/das/internal/metrics"
)

func newTestCache(budget int64, incFn func() uint64) *ServerCache {
	return newServerCache(0, budget, budget/2, incFn, metrics.NewRegistry())
}

// TestCacheGetLendsTheAdmittedWindow is the cache's side of the lent-read
// contract: what Put is given is an immutable read result, kept by
// reference, and a hit is a window of it — no copy in, no copy out, and no
// spare capacity through which an append could reach the rest.
func TestCacheGetLendsTheAdmittedWindow(t *testing.T) {
	c := newTestCache(1024, nil)
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	c.Put("f", 3, 16, data) // covers [16, 24)

	got, ok := c.Get("f", 3, 16, 24)
	if !ok {
		t.Fatal("whole-range lookup missed")
	}
	if &got[0] != &data[0] || len(got) != len(data) {
		t.Error("a hit is not the admitted window itself")
	}
	sub, ok := c.Get("f", 3, 18, 21)
	if !ok || !bytes.Equal(sub, []byte{3, 4, 5}) {
		t.Fatalf("sub-range = %v, %v", sub, ok)
	}
	if &sub[0] != &data[2] {
		t.Error("a sub-range hit is not a window of the admitted bytes")
	}
	if cap(sub) != len(sub) {
		t.Errorf("hit has spare capacity %d: an append would write into the entry", cap(sub)-len(sub))
	}
}

func TestCacheGetMissesOutsideResidentRange(t *testing.T) {
	c := newTestCache(1024, nil)
	c.Put("f", 3, 16, []byte{1, 2, 3, 4}) // covers [16, 20)
	if _, ok := c.Get("f", 3, 0, 4); ok {
		t.Error("hit below the resident range")
	}
	if _, ok := c.Get("f", 3, 18, 24); ok {
		t.Error("hit past the resident range")
	}
	if _, ok := c.Get("f", 4, 16, 20); ok {
		t.Error("hit on a different strip")
	}
	if got, ok := c.Get("f", 3, 16, 20); !ok || !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Errorf("covered range = %v, %v", got, ok)
	}
}

func TestCacheEvictsWithinBudget(t *testing.T) {
	c := newTestCache(32, nil)
	buf := make([]byte, 16)
	c.Put("f", 1, 0, buf)
	c.Put("f", 2, 0, buf)
	c.Put("f", 3, 0, buf) // evicts f/1 (LRU)
	if c.UsedBytes() != 32 {
		t.Fatalf("used %d, want 32", c.UsedBytes())
	}
	if c.Holds("f", 1) {
		t.Error("LRU entry survived over-budget insert")
	}
	if !c.Holds("f", 2) || !c.Holds("f", 3) {
		t.Error("recent entries evicted")
	}
	if s := c.Snapshot(); s.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", s.Evictions)
	}
	// An entry larger than the whole budget is not admitted.
	c.Put("f", 9, 0, make([]byte, 64))
	if c.Holds("f", 9) {
		t.Error("oversize entry admitted")
	}
}

func TestCachePinnedEntriesSurviveEviction(t *testing.T) {
	c := newTestCache(32, nil)
	buf := make([]byte, 16)
	c.Put("f", 1, 0, buf)
	if !c.Pin("f", 1) {
		t.Fatal("pin failed")
	}
	c.Put("f", 2, 0, buf)
	c.Put("f", 3, 0, buf) // must evict f/2, not pinned f/1
	if !c.Holds("f", 1) {
		t.Error("pinned entry evicted")
	}
	if c.Holds("f", 2) {
		t.Error("unpinned entry survived over the pinned one")
	}
	// The pinned-byte cap (budget/2 = 16) rejects a second pin.
	if c.Pin("f", 3) {
		t.Error("pin accepted past the pinned-byte cap")
	}
	if !c.Unpin("f", 1) {
		t.Error("unpin failed")
	}
	if !c.Pin("f", 3) {
		t.Error("pin rejected after cap freed")
	}
}

func TestCacheInvalidation(t *testing.T) {
	c := newTestCache(1024, nil)
	c.Put("f", 1, 0, []byte{1})
	c.Put("f", 2, 0, []byte{2})
	c.Put("g", 1, 0, []byte{3})
	c.Invalidate("f", 1)
	if c.Holds("f", 1) {
		t.Error("invalidated strip still resident")
	}
	c.InvalidateFile("f")
	if c.Holds("f", 2) {
		t.Error("file invalidation missed a strip")
	}
	if !c.Holds("g", 1) {
		t.Error("file invalidation hit another file")
	}
	if s := c.Snapshot(); s.Invalidations != 2 {
		t.Errorf("invalidations = %d, want 2", s.Invalidations)
	}
}

func TestCacheIncarnationBumpPurges(t *testing.T) {
	inc := uint64(1)
	c := newTestCache(1024, func() uint64 { return inc })
	c.Put("f", 1, 0, []byte{1, 2, 3})
	c.Pin("f", 1)
	inc = 2 // the server restarted: memory is gone
	if _, ok := c.Get("f", 1, 0, 3); ok {
		t.Error("cache survived a restart")
	}
	if c.UsedBytes() != 0 {
		t.Errorf("used %d after purge", c.UsedBytes())
	}
	s := c.Snapshot()
	if s.Entries != 0 {
		t.Errorf("%d entries after purge", s.Entries)
	}
	if s.PinnedBytes != 0 {
		t.Errorf("pinned bytes %d after purge", s.PinnedBytes)
	}
	// The cache works again at the new incarnation.
	c.Put("f", 1, 0, []byte{9})
	if !c.Holds("f", 1) {
		t.Error("cache dead after purge")
	}
}

func TestCachePutKeepsWiderRange(t *testing.T) {
	c := newTestCache(1024, nil)
	c.Put("f", 1, 0, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	c.Put("f", 1, 2, []byte{9, 9}) // narrower: ignored
	if got, ok := c.Get("f", 1, 0, 8); !ok || got[2] != 3 {
		t.Errorf("narrow re-put replaced wider entry: %v, %v", got, ok)
	}
	c.Put("f", 1, 0, make([]byte, 16)) // wider: replaces
	if _, ok := c.Get("f", 1, 0, 16); !ok {
		t.Error("wider re-put not admitted")
	}
}

// TestLRUVictimOrder: the least-recently-used unpinned entry goes first, a
// hit moves an entry to the front, pinned entries are skipped, and nothing
// is admitted when everything is pinned.
func TestLRUVictimOrder(t *testing.T) {
	c := newServerCache(0, 48, 48, nil, metrics.NewRegistry()) // three 16-byte strips, all pinnable
	buf := make([]byte, 16)
	resident := func(want ...int64) {
		t.Helper()
		for s := int64(1); s <= 6; s++ {
			if got := c.Holds("f", s); got != slices.Contains(want, s) {
				t.Fatalf("strip %d resident = %v, want exactly strips %v", s, got, want)
			}
		}
	}
	c.Put("f", 1, 0, buf)
	c.Put("f", 2, 0, buf)
	c.Put("f", 3, 0, buf)
	c.Get("f", 1, 0, 16) // order (MRU→LRU): 1, 3, 2
	c.Put("f", 4, 0, buf)
	resident(1, 3, 4)
	c.Pin("f", 3) // order 4, 1, 3: the least recent is pinned
	c.Put("f", 5, 0, buf)
	resident(3, 4, 5)
	c.Pin("f", 4)
	c.Pin("f", 5)
	c.Put("f", 6, 0, buf)
	resident(3, 4, 5)
	if s := c.Snapshot(); s.Evictions != 2 {
		t.Errorf("evictions = %d, want 2", s.Evictions)
	}
}

// TestCachePutWiderRangeKeepsPin: a wider re-admission of a pinned strip
// keeps the pin while the pin budget has room for it and counts a demotion
// when it has not; one that cannot be admitted at all leaves the resident
// entry where it was.
func TestCachePutWiderRangeKeepsPin(t *testing.T) {
	c := newTestCache(1024, nil) // pin budget 512
	c.Put("f", 1, 0, make([]byte, 64))
	c.Pin("f", 1)
	c.Put("f", 1, 0, make([]byte, 128))
	if !c.Pinned("f", 1) {
		t.Error("a wider re-admission dropped the pin")
	}
	if s := c.Snapshot(); s.Promotions != 1 || s.Demotions != 0 || s.PinnedBytes != 128 {
		t.Errorf("after the wider re-admission: promotions %d, demotions %d, pinned %dB; want 1, 0, 128B",
			s.Promotions, s.Demotions, s.PinnedBytes)
	}
	c.Put("f", 1, 0, make([]byte, 600)) // past the pin budget
	if c.Pinned("f", 1) {
		t.Error("a re-admission past the pin budget kept the pin")
	}
	if s := c.Snapshot(); s.Demotions != 1 || s.PinnedBytes != 0 {
		t.Errorf("after the oversize re-admission: demotions %d, pinned %dB; want 1, 0B", s.Demotions, s.PinnedBytes)
	}
	if _, ok := c.Get("f", 1, 0, 600); !ok {
		t.Error("the re-admitted range is not resident")
	}

	full := newServerCache(0, 64, 64, nil, metrics.NewRegistry())
	full.Put("f", 1, 0, make([]byte, 32))
	full.Put("f", 2, 0, make([]byte, 32))
	full.Pin("f", 1)
	full.Pin("f", 2)
	full.Put("f", 1, 0, make([]byte, 48)) // 16 more bytes; nothing evictable
	if _, ok := full.Get("f", 1, 0, 32); !ok || !full.Pinned("f", 1) {
		t.Error("a re-admission that could not be made dropped the resident pinned entry")
	}
	if full.UsedBytes() != 64 {
		t.Errorf("used %d, want 64", full.UsedBytes())
	}
}

func TestCacheRecordMissCountsMisses(t *testing.T) {
	c := newTestCache(1024, nil)
	c.RecordMiss(64)
	c.RecordMiss(64)
	s := c.Snapshot()
	if s.Misses != 2 || s.MissBytes != 128 {
		t.Errorf("misses = %d / %d bytes", s.Misses, s.MissBytes)
	}
}

// TestCacheHitSurvivesEvictionOfItsKey pins the ownership rule behind
// lent entries: an entry's exit — eviction, replacement, invalidation,
// restart purge — only lets its window go. With every pool Put poisoned,
// a hit handed out earlier, and the slice the cache was given, read what
// they read before: the cache never writes, or releases, what it holds.
func TestCacheHitSurvivesEvictionOfItsKey(t *testing.T) {
	done := bufpool.Audit()
	defer func() {
		if n := done(); n != 0 {
			t.Errorf("%d pooled buffers outstanding", n)
		}
	}()
	const size = 4096
	fill := func(v byte) []byte { return bytes.Repeat([]byte{v}, size) }
	exits := []struct {
		name string
		exit func(c *ServerCache)
	}{
		{"evict", func(c *ServerCache) { c.Put("f", 2, 0, fill(2)) }},
		{"replace-larger", func(c *ServerCache) { c.Put("f", 1, 0, fill(3)) }},
		{"invalidate", func(c *ServerCache) { c.Invalidate("f", 1) }},
		{"invalidate-file", func(c *ServerCache) { c.InvalidateFile("f") }},
	}
	for _, x := range exits {
		name, exit := x.name, x.exit
		c := newTestCache(size, nil)
		given := fill(1)[:size-1]
		c.Put("f", 1, 0, given)
		hit, ok := c.Get("f", 1, 0, size-1)
		if !ok {
			t.Fatalf("%s: resident entry missed", name)
		}
		exit(c)
		c.Put("g", 7, 0, fill(9))
		if !bytes.Equal(hit, fill(1)[:size-1]) || !bytes.Equal(given, fill(1)[:size-1]) {
			t.Errorf("%s: bytes of an earlier hit changed after its entry left the cache", name)
		}
	}

	inc := uint64(0)
	c := newTestCache(size, func() uint64 { return inc })
	c.Put("f", 1, 0, fill(1))
	hit, _ := c.Get("f", 1, 0, size)
	inc++ // restart: the next access purges lazily
	c.Put("g", 7, 0, fill(9))
	if !bytes.Equal(hit, fill(1)) {
		t.Error("restart purge: bytes of an earlier hit changed")
	}
	if got, ok := c.Get("g", 7, 0, size); !ok || !bytes.Equal(got, fill(9)) {
		t.Error("admission after the purge does not read back")
	}
}

// TestCachePutEvictCyclesAllocateNoPayload: an admission keeps the bytes
// it is given by reference, so a Put/evict cycle allocates bookkeeping
// (the entry, its list node) and nothing proportional to the
// strip.
func TestCachePutEvictCyclesAllocateNoPayload(t *testing.T) {
	const size = 64 << 10
	c := newTestCache(4*size, nil)
	data := make([]byte, size)
	strip := int64(0)
	cycle := func() {
		strip++
		c.Put("f", strip, 0, data)
	}
	for i := 0; i < 8; i++ {
		cycle() // fill the budget and start evicting
	}
	const cycles = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	if s := c.Snapshot(); s.Evictions < cycles {
		t.Fatalf("only %d evictions over %d cycles: not at steady state", s.Evictions, cycles)
	}
	if perCycle := (after.TotalAlloc - before.TotalAlloc) / cycles; perCycle > size/64 {
		t.Errorf("a Put/evict cycle allocates %d bytes for a %d-byte strip; an entry should hold its bytes by reference", perCycle, size)
	}
}
