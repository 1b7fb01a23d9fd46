package grid

import (
	"sync"

	"github.com/hpcio/das/internal/bufpool"
)

// Buffer pools for the strip/halo hot paths. Every scheme run assembles
// bands, decodes strip bytes, and encodes output bytes over and over with
// identical sizes; recycling those buffers removes the dominant allocation
// sources from the simulator's inner loop (the GB-scale garbage behind the
// Fig. 10-14 regeneration cost).
//
// The pool has one contract: what it hands out — GetFloats' slice, a
// pooled band's data — holds arbitrary contents, a previous holder's, and
// the taker fills all of it before anything reads it. Nothing is zeroed on
// the way out: a kernel writes its whole output, a band's one fill covers
// it, so outputs stay byte-identical to the unpooled reference.

var (
	floatPool bufpool.Pool[float64]
	bandPool  = sync.Pool{New: func() any { return new(Band) }}
)

// GetFloats returns a float slice of length n from the pool, allocating
// when the pool is empty or too small. Its contents are arbitrary: fill
// all of it before anything reads it. Return it with PutFloats once it is
// no longer referenced.
func GetFloats(n int) []float64 {
	return floatPool.Get(n)
}

// PutFloats recycles a slice obtained from GetFloats (or anywhere else).
// The caller must not use the slice afterwards.
func PutFloats(s []float64) {
	floatPool.Put(s)
}

// NewBandPooled is NewBand backed by the pool, except that its data
// starts with arbitrary contents: fill all of it (Writable)
// before anything reads it. Release recycles the band.
func NewBandPooled(width int, globalLen, start, end, lo, hi int64) *Band {
	b := NewBandLent(width, globalLen, start, end, lo, hi)
	b.set(window{lo: lo, vals: floatPool.Get(int(hi - lo)), owned: true})
	return b
}

// NewBandLent returns a band with the given geometry and no windows yet:
// Lend adds them, strip by strip. Like every band it is drawn from the
// pool of structs; Release recycles it and lets go of what was lent.
func NewBandLent(width int, globalLen, start, end, lo, hi int64) *Band {
	validateBand(width, globalLen, start, end, lo, hi)
	b := bandPool.Get().(*Band)
	b.Width, b.GlobalLen, b.Start, b.End, b.Lo, b.hi = width, globalLen, start, end, lo, hi
	return b
}

// Release recycles a band, whichever constructor made it: the windows the
// band allocated go back to the float pool, which unlike the sync.Pool
// holding the structs survives a GC cycle; the others — a caller's
// (BandOver), a lent strip's, a Narrow's — are only forgotten, their
// memory was never the band's; and the struct keeps its window list and
// stitch rows for the next band. The caller must not use the band
// afterwards, nor a Narrow of it if the band owned its data. A band that
// is never released is ordinary garbage.
func (b *Band) Release() {
	for _, w := range b.wins {
		if w.owned {
			floatPool.Put(w.vals)
		}
	}
	clear(b.wins)
	*b = Band{wins: b.wins[:0], stitch: b.stitch}
	bandPool.Put(b)
}
