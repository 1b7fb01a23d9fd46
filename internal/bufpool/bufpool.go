// Package bufpool provides a size-classed free list for slices. In the
// program its one user is grid's float pool: the TS worker's output and
// the pipeline's lineage bands. Audit is its test hook: a ledger of what
// Get hands out, and poison on what Put takes back.
//
// sync.Pool is the obvious tool but costs one allocation per Put of a
// slice (the header escapes to the heap), which is exactly the per-strip
// garbage the pools exist to remove. A mutex-guarded free list keeps
// recycling allocation-free; classes are capacity buckets by power of two,
// so a Get is served by any buffer of its class and new buffers are
// rounded up to a class boundary to stay reusable.
package bufpool

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// maxPerClass bounds each class's free list so the pool tracks the
// steady-state working set rather than the high-water mark.
const maxPerClass = 128

const numClasses = 48 // up to 2^47 elements: beyond any raster here

// Pool recycles slices of E. The zero value is ready to use; it is safe
// for concurrent use.
type Pool[E any] struct {
	mu      sync.Mutex
	classes [numClasses][][]E
}

// class returns the bucket index for a capacity: the smallest c with
// 2^c >= n.
func class(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Get returns a slice of length n with arbitrary contents: callers must
// overwrite (or clear) it. The slice comes from the free list when its
// class has one, else a fresh allocation rounded up to the class capacity.
func (p *Pool[E]) Get(n int) []E {
	if n == 0 {
		return nil
	}
	c := class(n)
	var s []E
	p.mu.Lock()
	if free := p.classes[c]; len(free) > 0 {
		s = free[len(free)-1]
		free[len(free)-1] = nil
		p.classes[c] = free[:len(free)-1]
	}
	p.mu.Unlock()
	if s == nil {
		s = make([]E, 1<<c)
	}
	if l := audit.Load(); l != nil {
		l.lend(&s[0])
	}
	return s[:n]
}

// Put recycles a slice. Slices allocated elsewhere are accepted (their
// class is the largest c with 2^c <= cap); the caller must not use the
// slice afterwards.
func (p *Pool[E]) Put(s []E) {
	if cap(s) == 0 {
		return
	}
	s = s[:cap(s)]
	c := bits.Len(uint(cap(s))) - 1 // floor: the class s can fully serve
	if l := audit.Load(); l != nil {
		scribble(s)
		l.back(&s[0])
	}
	p.mu.Lock()
	if len(p.classes[c]) < maxPerClass {
		p.classes[c] = append(p.classes[c], s)
	}
	p.mu.Unlock()
}

// audit is the test hook's ledger while it is on, nil while it is off.
var audit atomic.Pointer[ledger]

// A ledger holds every slice Get has handed out and Put has not taken
// back, keyed by the address of its first element: the identity of
// s[:cap(s)], whatever length the holder resliced it to.
type ledger struct {
	mu  sync.Mutex
	out map[any]bool
}

// lend records a slice Get hands out. The free list holding a slice that
// is already out means it was Put twice, and two holders are about to
// share it; nothing else can produce that, so it panics there and then.
func (l *ledger) lend(first any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.out[first] {
		panic("bufpool: Get hands out a slice that is already out: it was Put twice")
	}
	l.out[first] = true
}

// back records a slice Put takes back. A slice the pool never handed out
// (Put's contract accepts one) was never recorded and is not counted.
func (l *ledger) back(first any) {
	l.mu.Lock()
	delete(l.out, first)
	l.mu.Unlock()
}

// Audit switches the test hook on and returns the function that switches
// it off again and reports how many slices Get handed out, while it was
// on, that no Put has returned: a leak, unless their holder is still
// alive. While it is on, every Put also overwrites the slice it is given,
// even one the free list then turns away. Memory that somebody still
// reads after it reached a pool — a stored strip, a lent view, a band
// kept past its Release — then holds garbage instead of plausible old
// values, and the test comparing outputs with the sequential reference
// fails instead of passing by luck. The hook is process-wide: tests that
// run in parallel with an audited one are audited with it.
func Audit() (done func() (outstanding int)) {
	l := &ledger{out: make(map[any]bool)}
	was := audit.Swap(l)
	return func() int {
		audit.Store(was)
		l.mu.Lock()
		defer l.mu.Unlock()
		return len(l.out)
	}
}

// poisonByte fills scribbled memory; eight of them make a float64 of
// about -1.9e132, which no kernel here produces.
const poisonByte = 0xDB

func scribble[E any](s []E) {
	switch t := any(s).(type) {
	case []byte:
		for i := range t {
			t[i] = poisonByte
		}
	case []float64:
		v := math.Float64frombits(poisonByte * 0x0101010101010101)
		for i := range t {
			t[i] = v
		}
	default:
		clear(s) // no garbage value to offer for other element types
	}
}
