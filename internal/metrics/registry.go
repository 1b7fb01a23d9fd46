package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is one int64 count in a Registry. A subsystem takes its handles
// when it is built, so counting is one atomic add: no lookup, no
// formatting. The simulator core is single-threaded, but tests read
// counters from their own goroutines.
type Counter struct{ n atomic.Int64 }

// Add adds n.
func (c *Counter) Add(n int64) { c.n.Add(n) }

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Load returns the count.
func (c *Counter) Load() int64 { return c.n.Load() }

// Registry holds one platform's named counters. A name is one unlabelled
// counter or one counter per server label; its cluster total is the sum
// over its labels. Names are the keys a run's record carries
// ("recovery.retries", "cache.hit_bytes"). Registering and reading take a
// lock; counting does not.
type Registry struct {
	mu sync.Mutex
	// families maps a name to its counters: slot 0 is the unlabelled one,
	// slot 1+s server s's.
	families map[string][]*Counter
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{families: make(map[string][]*Counter)} }

// Counter returns name's unlabelled counter, registering it on first use.
func (r *Registry) Counter(name string) *Counter { return r.handle(name, 0) }

// ServerCounter returns name's counter for server srv, registering it on
// first use.
func (r *Registry) ServerCounter(name string, srv int) *Counter {
	if srv < 0 {
		panic(fmt.Sprintf("metrics: counter %s labelled with server %d", name, srv))
	}
	return r.handle(name, 1+srv)
}

func (r *Registry) handle(name string, slot int) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if len(f) <= slot {
		f = append(f, make([]*Counter, slot+1-len(f))...)
		r.families[name] = f
	}
	if f[slot] == nil {
		f[slot] = new(Counter)
	}
	return f[slot]
}

// Get returns name's cluster total, 0 for a name nothing registered.
func (r *Registry) Get(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return total(r.families[name])
}

// GetServer returns name's count at server srv, 0 when unregistered.
func (r *Registry) GetServer(name string, srv int) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.families[name]; srv >= 0 && 1+srv < len(f) && f[1+srv] != nil {
		return f[1+srv].Load()
	}
	return 0
}

// Snapshot returns every registered name's cluster total.
func (r *Registry) Snapshot() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.families))
	for name, f := range r.families {
		out[name] = total(f)
	}
	return out
}

// Format renders every registered name that starts with prefix and its
// cluster total, in name order, e.g. "restripe.completed=1
// restripe.planned=1", or "(none)" when nothing under prefix is registered.
func (r *Registry) Format(prefix string) string {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return "(none)"
	}
	sort.Strings(names)
	for i, name := range names {
		names[i] = fmt.Sprintf("%s=%d", name, snap[name])
	}
	return strings.Join(names, " ")
}

func total(f []*Counter) (sum int64) {
	for _, c := range f {
		if c != nil {
			sum += c.Load()
		}
	}
	return sum
}
