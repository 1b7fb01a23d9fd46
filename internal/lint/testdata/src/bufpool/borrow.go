package fakebuf

import (
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/pfs"
	"github.com/hpcio/das/internal/sim"
)

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

// The pooled read right next to it keeps its own contract: its copy IS
// released, and may be written.
func pooledReadStillReleases(p *sim.Proc, srv *pfs.Server, src []byte) error {
	data, err := srv.LocalRead(p, "f", 0, 0, 0)
	if err != nil {
		return err
	}
	copy(data, src)
	data[0] = 1
	pfs.ReleaseBuffer(data)
	return nil
}
