// Test fixture for the bufpool analyzer, exercising the ownership walk
// against the real pool packages.
package fakebuf

import (
	"errors"

	"github.com/hpcio/das/internal/bufpool"
	"github.com/hpcio/das/internal/grid"
)

var pool bufpool.Pool[byte]

var errBad = errors.New("bad")

func use(b []byte) {}

// Straight-line acquire/use/release: the baseline legal shape.
func ok(n int) {
	b := pool.Get(n)
	use(b)
	pool.Put(b)
}

// var-declared buffers are tracked the same as := ones.
func okVar(n int) {
	var b = pool.Get(n)
	use(b)
	pool.Put(b)
}

// A deferred Put settles every path, early returns included.
func deferOK(n int, bad bool) error {
	b := pool.Get(n)
	defer pool.Put(b)
	if bad {
		return errBad
	}
	use(b)
	return nil
}

// The classic error-path leak: the early return skips the Put.
func leakOnError(n int, bad bool) error {
	b := pool.Get(n) // want `pooled buffer is not released on the return path at line \d+`
	if bad {
		return errBad
	}
	pool.Put(b)
	return nil
}

// Released on one branch only: control can fall off the end still live.
func branchOnlyRelease(n int, c bool) {
	b := pool.Get(n) // want `pooled buffer may not be released on the return path at line \d+ \(released on some branches only\)`
	if c {
		pool.Put(b)
	}
}

// Releasing on both arms is complete.
func bothBranchesRelease(n int, c bool) {
	b := pool.Get(n)
	if c {
		use(b)
		pool.Put(b)
	} else {
		pool.Put(b)
	}
}

func useAfterPut(n int) {
	b := pool.Get(n)
	pool.Put(b)
	use(b) // want `pooled buffer used after its Put at line \d+`
}

func doublePut(n int) {
	b := pool.Get(n)
	pool.Put(b)
	pool.Put(b) // want `pooled buffer released twice \(already Put at line \d+\)`
}

func overwritten(n int) {
	b := pool.Get(n) // want `pooled buffer is overwritten at line \d+ before being released`
	b = nil
	_ = b
}

// Escapes: ownership leaving the function needs a //das:transfer.
func directReturn(n int) []byte {
	return pool.Get(n) // want `pooled buffer returned to the caller without a release`
}

func annotatedReturn(n int) []byte {
	//das:transfer -- the caller owns the buffer and releases it
	return pool.Get(n)
}

func trackedThenReturned(n int) []byte {
	b := pool.Get(n)
	use(b)
	//das:transfer -- handed to the caller after staging
	return b
}

func passedAway(n int) {
	use(pool.Get(n)) // want `pooled buffer passed to a function that keeps it without a release`
}

type box struct{ buf []byte }

func storedAway(n int) box {
	var s box
	s.buf = pool.Get(n) // want `pooled buffer assigned to a non-local destination without a release`
	return s
}

func annotatedField(n int) box {
	var s box
	//das:transfer -- the box owns the buffer; its consumer releases it
	s.buf = pool.Get(n)
	return s
}

func discarded(n int) {
	pool.Get(n) // want `pooled buffer discarded: the Get result is never released`
}

// A release inside a closure is accepted: ownership logic deliberately
// spans functions (e.g. a completion callback).
func closureRelease(n int) func() {
	b := pool.Get(n)
	return func() { pool.Put(b) }
}

// The float pool pairs with PutFloats just like the byte pools.
func floatsOK(n int) {
	f := grid.GetFloats(n)
	f[0] = 1
	grid.PutFloats(f)
}

func floatsLeak(n int, bad bool) error {
	f := grid.GetFloats(n) // want `pooled buffer is not released on the return path at line \d+`
	if bad {
		return errBad
	}
	grid.PutFloats(f)
	return nil
}
