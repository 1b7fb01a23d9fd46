// Package bufpool provides a size-classed free list for slices, shared by
// the strip I/O hot paths (byte buffers in pfs, float buffers in grid).
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
	p.mu.Lock()
	if free := p.classes[c]; len(free) > 0 {
		s := free[len(free)-1]
		free[len(free)-1] = nil
		p.classes[c] = free[:len(free)-1]
		p.mu.Unlock()
		return s[:n]
	}
	p.mu.Unlock()
	return make([]E, n, 1<<c)
}

// Put recycles a slice. Slices allocated elsewhere are accepted (their
// class is the largest c with 2^c <= cap); the caller must not use the
// slice afterwards.
func (p *Pool[E]) Put(s []E) {
	if cap(s) == 0 {
		return
	}
	c := bits.Len(uint(cap(s))) - 1 // floor: the class s can fully serve
	if poison.Load() {
		scribble(s[:cap(s)])
	}
	p.mu.Lock()
	if len(p.classes[c]) < maxPerClass {
		p.classes[c] = append(p.classes[c], s[:cap(s)])
	}
	p.mu.Unlock()
}

// poison is a test hook: while set, every Put overwrites the slice it is
// given, even one the free list then turns away. Memory that somebody
// still reads after it reached a pool — a stored strip, a lent view, a
// band kept past its Release — then holds garbage instead of plausible old
// values, and the test comparing outputs with the sequential reference
// fails instead of passing by luck.
var poison atomic.Bool

// PoisonPuts switches the poison hook on for a test and returns the
// function that switches it back.
func PoisonPuts() (restore func()) {
	was := poison.Swap(true)
	return func() { poison.Store(was) }
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
