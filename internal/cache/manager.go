package cache

import (
	"fmt"
	"sort"

	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/sim"
)

// Config sizes the halo-strip cache subsystem. The zero value is usable:
// Normalize fills in the default budget.
type Config struct {
	// BudgetBytes is each server's resident byte budget.
	BudgetBytes int64
}

// The pin limits are fixed; no deployment ever tuned them.
const (
	// maxPinnedFrac bounds pinned bytes as a fraction of the budget so pins
	// cannot starve the adaptive part of the cache.
	maxPinnedFrac = 0.5
	// maxPromotionsPerPass bounds how many strips one promote pass may pin
	// on one server, keeping tuning incremental like DynamicCache's.
	maxPromotionsPerPass = 4
)

// Normalize fills zero fields with defaults and validates the rest.
func (c Config) Normalize() (Config, error) {
	if c.BudgetBytes == 0 {
		c.BudgetBytes = 8 << 20 // 8 MiB per server
	}
	if c.BudgetBytes < 0 {
		return c, fmt.Errorf("cache: negative budget %d", c.BudgetBytes)
	}
	return c, nil
}

// Action is one replica-tuning decision, logged for reports and the
// determinism tests.
type Action struct {
	At     sim.Time
	Server int
	Kind   string // "promote" or "demote"
	File   string
	Strip  int64
}

func (a Action) String() string {
	return fmt.Sprintf("[%v] server %d %s %s strip %d", a.At, a.Server, a.Kind, a.File, a.Strip)
}

// Manager owns one ServerCache per storage server, the pin budget, the
// candidate ordering and the pin/unpin log. It has no trigger of its own:
// pins move only when the unified p99 controller (internal/control) calls
// PromoteHotServer or DemoteIdleServer, fed by the latency sink.
type Manager struct {
	eng     *sim.Engine
	cfg     Config
	servers []*ServerCache

	// per-file byte hit/miss windows feed HitRateEstimate for predict.
	fileHit  map[string]int64
	fileMiss map[string]int64

	actions []Action
	// latSink, when set, receives every halo-fetch latency sample the
	// manager records — the controller's per-server tuning feed.
	latSink func(srv int, lat sim.Time)
}

// NewManager builds the subsystem: one cache per storage server, each
// counting into reg under its server label. incFn reports a server's
// current incarnation (nil means "never restarts").
func NewManager(eng *sim.Engine, nServers int, cfg Config, incFn func(srv int) uint64, reg *metrics.Registry) (*Manager, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	m := &Manager{
		eng:      eng,
		cfg:      cfg,
		fileHit:  make(map[string]int64),
		fileMiss: make(map[string]int64),
	}
	maxPinned := int64(float64(cfg.BudgetBytes) * maxPinnedFrac)
	for i := 0; i < nServers; i++ {
		i := i
		var fn func() uint64
		if incFn != nil {
			fn = func() uint64 { return incFn(i) }
		}
		m.servers = append(m.servers, newServerCache(i, cfg.BudgetBytes, maxPinned, fn, reg))
	}
	return m, nil
}

// Config returns the normalized configuration.
func (m *Manager) Config() Config { return m.cfg }

// Server returns the cache of storage server i, or nil out of range.
func (m *Manager) Server(i int) *ServerCache {
	if i < 0 || i >= len(m.servers) {
		return nil
	}
	return m.servers[i]
}

// NumServers returns the number of per-server caches.
func (m *Manager) NumServers() int { return len(m.servers) }

// Get serves bytes [lo, hi) of a strip from server srv's cache, lent
// (ServerCache.Get). Hits are free on the DES clock: the data already sits
// in the server's memory.
func (m *Manager) Get(srv int, file string, strip, lo, hi int64) ([]byte, bool) {
	c := m.Server(srv)
	if c == nil {
		return nil, false
	}
	data, ok := c.Get(file, strip, lo, hi)
	if ok {
		m.fileHit[file] += hi - lo
	}
	return data, ok
}

// RecordFetch accounts a remote halo fetch server srv had to perform —
// a cache miss — and admits the fetched bytes, by reference: data is the
// lent read result. lat is the observed DES latency of the fetch, which
// goes to the latency sink.
func (m *Manager) RecordFetch(srv int, file string, strip, lo int64, data []byte, lat sim.Time) {
	c := m.Server(srv)
	if c == nil {
		return
	}
	c.RecordMiss(int64(len(data)))
	m.fileMiss[file] += int64(len(data))
	c.Put(file, strip, lo, data)
	if m.latSink != nil {
		m.latSink(srv, lat)
	}
}

// InvalidateStrip drops every server's cached copy of a strip. The pfs
// write path calls this from storePut so a write anywhere kills stale
// halo copies everywhere.
func (m *Manager) InvalidateStrip(file string, strip int64) {
	for _, c := range m.servers {
		c.Invalidate(file, strip)
	}
}

// InvalidateFile drops every server's cached strips of a file.
func (m *Manager) InvalidateFile(file string) {
	for _, c := range m.servers {
		c.InvalidateFile(file)
	}
}

// HitRateEstimate returns the observed byte hit fraction for a file's
// halo fetches, 0 before any observation — the discount predict applies
// to dependent bytes in the cache-aware offload decision.
func (m *Manager) HitRateEstimate(file string) float64 {
	h, ms := m.fileHit[file], m.fileMiss[file]
	if h+ms == 0 {
		return 0
	}
	return float64(h) / float64(h+ms)
}

// FileHeat is one file's aggregate halo-fetch traffic through the cache,
// the per-file view multi-tenant reports rank files by.
type FileHeat struct {
	File      string `json:"file"`
	HitBytes  int64  `json:"hit_bytes"`
	MissBytes int64  `json:"miss_bytes"`
}

// TopFiles returns the n hottest files by total halo traffic (hit + miss
// bytes), ties broken by file name — deterministic
// regardless of map iteration order. n <= 0 or n beyond the population
// returns everything.
func (m *Manager) TopFiles(n int) []FileHeat {
	names := make(map[string]bool, len(m.fileHit)+len(m.fileMiss))
	for f := range m.fileHit {
		names[f] = true
	}
	for f := range m.fileMiss {
		names[f] = true
	}
	out := make([]FileHeat, 0, len(names))
	for f := range names {
		out = append(out, FileHeat{File: f, HitBytes: m.fileHit[f], MissBytes: m.fileMiss[f]})
	}
	sort.Slice(out, func(i, j int) bool {
		ti := out[i].HitBytes + out[i].MissBytes
		tj := out[j].HitBytes + out[j].MissBytes
		if ti != tj {
			return ti > tj
		}
		return out[i].File < out[j].File
	})
	if n > 0 && n < len(out) {
		out = out[:n]
	}
	return out
}

// Actions returns the replica-tuning log in decision order.
func (m *Manager) Actions() []Action { return m.actions }

// Stats returns per-server snapshots in server order.
func (m *Manager) Stats() []Stats {
	out := make([]Stats, 0, len(m.servers))
	for _, c := range m.servers {
		out = append(out, c.Snapshot())
	}
	return out
}

// promoteHot pins a slow server's unpinned strips that this window hit,
// most hits first, then those it (re)fetched, returning how many strips it
// pinned; ties go by file, then strip. The just-fetched strips of a window
// whose tail is already over threshold are precisely the ones whose next
// access repeats the slow fetch, so pinning them is how a cold, thrashing
// cache bootstraps — under a cyclic access pattern wider than the budget
// no entry ever survives to be re-hit, and a hits-only candidate set could
// never act.
func (m *Manager) promoteHot(c *ServerCache) int {
	var cands []*entry
	for _, e := range c.entries {
		if !e.pinned && (e.winHits > 0 || e.fetched) {
			cands = append(cands, e)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.winHits != b.winHits {
			return a.winHits > b.winHits
		}
		if a.key.File != b.key.File {
			return a.key.File < b.key.File
		}
		return a.key.Strip < b.key.Strip
	})
	n := 0
	for _, e := range cands {
		if n >= maxPromotionsPerPass {
			break
		}
		if c.Pin(e.key.File, e.key.Strip) {
			m.actions = append(m.actions, Action{At: m.eng.Now(), Server: c.srv, Kind: "promote", File: e.key.File, Strip: e.key.Strip})
			n++
		}
	}
	return n
}

// demoteIdle unpins pinned strips that saw no hits in the window,
// returning how many strips it unpinned.
func (m *Manager) demoteIdle(c *ServerCache) int {
	var keys []Key
	for k, e := range c.entries {
		if e.pinned && e.winHits == 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].File != keys[j].File {
			return keys[i].File < keys[j].File
		}
		return keys[i].Strip < keys[j].Strip
	})
	n := 0
	for _, k := range keys {
		if c.Unpin(k.File, k.Strip) {
			m.actions = append(m.actions, Action{At: m.eng.Now(), Server: c.srv, Kind: "demote", File: k.File, Strip: k.Strip})
			n++
		}
	}
	return n
}

// --- The controller's interface ---------------------------------------
//
// The unified p99 controller (internal/control) is the one trigger: it
// keeps its own quantile sketches over the latency samples forwarded by
// SetLatencySink and calls the promote/demote passes below when a
// percentile threshold with hysteresis says so. The manager owns the
// caches, the pin budget, the candidate ordering, and the action log.

// SetLatencySink registers a listener for every halo-fetch latency sample
// (nil disables). Called from RecordFetch with the fetching server.
func (m *Manager) SetLatencySink(fn func(srv int, lat sim.Time)) { m.latSink = fn }

// PromoteHotServer runs one promote pass on server srv — pin its most-hit
// unpinned strips, then the strips it fetched this window, at most four
// and within the pin budget — and returns how many strips were pinned.
// The controller's percentile trigger has already attributed the window's
// tail to this server, so the strips that window fetched are the ones a
// replica would have served locally.
func (m *Manager) PromoteHotServer(srv int) int {
	c := m.Server(srv)
	if c == nil {
		return 0
	}
	c.checkIncarnation()
	return m.promoteHot(c)
}

// DemoteIdleServer runs one demote pass on server srv — unpin its pinned
// strips that saw no hits this window — and returns how many strips were
// unpinned.
func (m *Manager) DemoteIdleServer(srv int) int {
	c := m.Server(srv)
	if c == nil {
		return 0
	}
	c.checkIncarnation()
	return m.demoteIdle(c)
}

// WindowHits returns how many cache hits server srv served since the last
// window reset — the controller's idle-pin signal for windows with no
// fetches at all.
func (m *Manager) WindowHits(srv int) int64 {
	c := m.Server(srv)
	if c == nil {
		return 0
	}
	return c.winHits
}

// ResetWindows closes the current sampling window on every server: it
// applies pending incarnation purges and clears the per-server hit count
// and the per-entry hit and fetch marks. The controller calls it at the
// end of each tick.
func (m *Manager) ResetWindows() {
	for _, c := range m.servers {
		c.checkIncarnation()
		c.winHits = 0
		for _, e := range c.entries {
			e.winHits, e.fetched = 0, false
		}
	}
}
