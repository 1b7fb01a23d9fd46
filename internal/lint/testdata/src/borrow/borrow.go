// Test fixture for the borrow analyzer, against the real reads and pools.
package fakeborrow

import (
	"github.com/hpcio/das/internal/bufpool"
	"github.com/hpcio/das/internal/cache"
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/pfs"
	"github.com/hpcio/das/internal/sim"
)

var pool bufpool.Pool[byte]

// The lending read's result is borrowed: windows of the stored strips
// themselves. Reading them — in place, through a band they are lent to —
// is the whole point.
func borrowOK(p *sim.Proc, srv *pfs.Server, spans []pfs.Span, band *grid.Band) error {
	chunks, err := srv.LocalViewMany(p, "f", spans)
	if err != nil {
		return err
	}
	var sum byte
	for i, chunk := range chunks {
		band.Lend(int64(i), chunk)
		sum += chunk[0] + chunks[i][1]
	}
	mine := make([]byte, len(chunks[0]))
	copy(mine, chunks[0]) // copying OUT of a view is fine
	mine[0] = sum
	return nil
}

// Releasing a view would hand a file's contents to the pool.
func borrowReleased(p *sim.Proc, srv *pfs.Server, spans []pfs.Span) {
	chunks, _ := srv.LocalViewMany(p, "f", spans)
	for _, chunk := range chunks {
		pfs.ReleaseBuffer(chunk) // want `borrowed strip memory released to a pool`
	}
	pool.Put(chunks[0]) // want `borrowed strip memory released to a pool`
}

// Borrowed-ness follows slicing, indexing and plain assignment.
func borrowDerived(p *sim.Proc, srv *pfs.Server, spans []pfs.Span, src []byte) {
	chunks, _ := srv.LocalViewMany(p, "f", spans)
	first := chunks[0]
	window := first[8:16]
	var alias = window
	pfs.ReleaseBuffer(alias) // want `borrowed strip memory released to a pool`
	copy(window, src)        // want `borrowed strip memory is the destination of copy`
	copy(chunks[1][4:], src) // want `borrowed strip memory is the destination of copy`
	first[0] = 1             // want `borrowed strip memory is assigned through an index`
	chunks[1][2]++           // want `borrowed strip memory is assigned through an index`
	chunks[2] = src          // want `borrowed strip memory is assigned through an index`
	first[3], src[0] = 7, 7  // want `borrowed strip memory is assigned through an index`
}

// A closure shares the borrowing function's variables.
func borrowInClosure(p *sim.Proc, srv *pfs.Server, spans []pfs.Span) func() {
	chunks, _ := srv.LocalViewMany(p, "f", spans)
	return func() {
		for _, c := range chunks {
			pfs.ReleaseBuffer(c) // want `borrowed strip memory released to a pool`
		}
	}
}

// Every read lends: the holder's single-strip read, a remote read, a batch
// of spans, a cache hit. A read-modify-write copies first and edits the
// copy.
func readsAreBorrowed(p *sim.Proc, fs *pfs.FileSystem, srv *pfs.Server, mgr *cache.Manager, src []byte) error {
	local, err := srv.LocalRead(p, "f", 0, 0, 0)
	if err != nil {
		return err
	}
	copy(local, src)         // want `borrowed strip memory is the destination of copy`
	pfs.ReleaseBuffer(local) // want `borrowed strip memory released to a pool`

	remote, err := fs.ReadStripFrom(p, 0, 1, "f", 0, 0, 0)
	if err != nil {
		return err
	}
	remote[0] = 1 // want `borrowed strip memory is assigned through an index`
	full := make([]byte, len(remote))
	copy(full, remote)
	copy(full[8:], src)
	full[0] = 1

	spans, _ := fs.ReadSpansFrom(p, 0, 1, "f", nil)
	for _, d := range spans {
		copy(src, d)
		pool.Put(d) // want `borrowed strip memory released to a pool`
	}
	if hit, ok := mgr.Get(0, "f", 0, 0, 8); ok {
		pfs.ReleaseBuffer(hit) // want `borrowed strip memory released to a pool`
	}
	return nil
}

type resp struct{ Data []byte }

type halo struct {
	data []byte
	lo   int64
}

// A window stays borrowed in the field that carries it to another
// function — a response message, a signal payload — and through the
// result of a function that returns it.
func fillResp(p *sim.Proc, srv *pfs.Server, r *resp) {
	data, _ := srv.LocalRead(p, "f", 0, 0, 0)
	r.Data = data
}

func drainResp(r *resp) []byte {
	data := r.Data
	r.Data = nil
	return data
}

func fetch(p *sim.Proc, fs *pfs.FileSystem) (data []byte, lo int64, err error) {
	data, err = fs.ReadStripFrom(p, 0, 1, "f", 0, 0, 0)
	return data, 8, err
}

func consume(p *sim.Proc, fs *pfs.FileSystem, r *resp, band *grid.Band) {
	pfs.ReleaseBuffer(drainResp(r)) // want `borrowed strip memory released to a pool`
	data, lo, _ := fetch(p, fs)
	results := []halo{{data: data, lo: lo}}
	for _, got := range results {
		band.Lend(got.lo, got.data)
	}
	for _, got := range results {
		pfs.ReleaseBuffer(got.data) // want `borrowed strip memory released to a pool`
		got.data[0]++               // want `borrowed strip memory is assigned through an index`
	}
}

// A struct that never carries a window is nobody's business.
type owned struct{ buf []byte }

func ownedOK(n int, src []byte) {
	o := owned{buf: pool.Get(n)}
	copy(o.buf, src)
	o.buf[0] = 1
	pool.Put(o.buf)
}

// The lending client read hands its callback the same windows: lending
// them to a band and copying out of them are the two things to do.
func windowOK(p *sim.Proc, c *pfs.Client, band *grid.Band, dst []byte) (n int64, err error) {
	err = c.ReadLent(p, "f", 64, int64(len(dst)), func(at int64, window []byte) {
		band.Lend(at/grid.ElemSize, window)
		copy(dst[at-64:], window)
		tail := window[len(window)/2:]
		n += int64(len(tail)) + int64(window[0])
	})
	return n, err
}

// Writing through a window, or releasing it, is not.
func windowMisused(p *sim.Proc, c *pfs.Client, src []byte, vals []float64) {
	_ = c.ReadLent(p, "f", 0, 64, func(_ int64, window []byte) {
		copy(window, src)            // want `borrowed strip memory is the destination of copy`
		window[0] = 1                // want `borrowed strip memory is assigned through an index`
		pool.Put(window)             // want `borrowed strip memory released to a pool`
		src = append(src, window...) // copies out: fine
	})
	_ = c.ReadLent(p, "f", 0, 64, scribble)
}

// A named callback's window parameter is borrowed just the same.
func scribble(_ int64, window []byte) {
	window[1]++ // want `borrowed strip memory is assigned through an index`
}

// The task-form remote read hands its continuation the window a
// ReadStripFrom would return, be the continuation a literal or a method
// value parked in a field first (so that issuing a read allocates no
// closure).
type taskReader struct {
	fs     *pfs.FileSystem
	sum    byte
	onRead func(data []byte, err error)
}

func newTaskReader(fs *pfs.FileSystem) *taskReader {
	r := &taskReader{fs: fs}
	r.onRead = r.readDone
	return r
}

func (r *taskReader) issue(src []byte) {
	r.fs.ReadStripFromTask(0, 1, "f", 0, 0, 0, r.onRead)
	r.fs.ReadStripFromTask(0, 1, "f", 1, 0, 0, func(data []byte, err error) {
		copy(data, src) // want `borrowed strip memory is the destination of copy`
	})
}

func (r *taskReader) readDone(data []byte, err error) {
	r.sum += data[0]
	data[0] = 0 // want `borrowed strip memory is assigned through an index`
}

// A continuation that never sees a read keeps its buffer its own.
func (r *taskReader) unrelated(done func(data []byte, err error)) {
	buf := grid.GetFloats(8)
	buf[0] = 1
	grid.PutFloats(buf)
	done(make([]byte, 8), nil)
}
