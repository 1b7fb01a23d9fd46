package fakebuf

import (
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/pfs"
	"github.com/hpcio/das/internal/sim"
)

func kernel(b *grid.Band, out []float64) {}

// A pooled buffer lent to a band is held until the band is dropped: the
// band reads it in place.
func lendHeld(n int64, out []float64) {
	band := grid.NewBandLent(8, 64, 0, 64, 0, 64)
	buf := pool.Get(int(n))
	band.Lend(0, buf)
	kernel(band, out)
	band.Release()
	pool.Put(buf)
}

// Releasing it before the kernel call hands the pool memory the kernel is
// about to read.
func lendReleasedBeforeKernel(n int64, out []float64) {
	band := grid.NewBandLent(8, 64, 0, 64, 0, 64)
	buf := pool.Get(int(n))
	band.Lend(0, buf)
	pool.Put(buf) // want `buffer lent to a band at line \d+ is released while the band is still in use \(line \d+\)`
	kernel(band, out)
	band.Release()
}

type fetched struct {
	data []byte
	lo   int64
	err  error
}

// The buffer family follows ranges, fields, slicing and append.
func lendResultsReleasedEarly(results []fetched, out []float64) {
	band := grid.NewBandLent(8, 64, 0, 64, 0, 64)
	var held [][]byte
	for _, got := range results {
		window := got.data[8:]
		band.Lend(got.lo+1, window)
		held = append(held, got.data)
	}
	for _, data := range held {
		pool.Put(data) // want `buffer lent to a band at line \d+ is released while the band is still in use`
	}
	kernel(band, out)
	band.Release()
}

// A borrowed chunk is lent without a finding and, as ever, never released;
// a pooled buffer lent beside it keeps its own contract.
func lendBorrowedAndPooled(p *sim.Proc, srv *pfs.Server, spans []pfs.Span, n int64, out []float64) error {
	chunks, err := srv.LocalViewMany(p, "f", spans)
	if err != nil {
		return err
	}
	band := grid.NewBandLent(8, 64, 0, 64, 0, 64)
	for i, chunk := range chunks {
		band.Lend(int64(i)*8, chunk)
	}
	buf := pool.Get(int(n))
	band.Lend(56, buf)
	kernel(band, out)
	band.Release()
	pool.Put(buf)
	return nil
}

// Another band's buffers are none of this band's business.
func lendTwoBands(n int64, out []float64) {
	a := grid.NewBandLent(8, 64, 0, 64, 0, 64)
	b := grid.NewBandLent(8, 64, 0, 64, 0, 64)
	forA, forB := pool.Get(int(n)), pool.Get(int(n))
	a.Lend(0, forA)
	b.Lend(0, forB)
	kernel(a, out)
	a.Release()
	pool.Put(forA)
	kernel(b, out)
	b.Release()
	pool.Put(forB)
}
