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
// GetFloats returns zeroed memory; a pooled band does not — it is zeroed
// only where its assembly left a gap (Band.ZeroUnfilled) — and either way
// outputs stay byte-identical to the unpooled reference.

var (
	floatPool bufpool.Pool[float64]
	bandPool  = sync.Pool{New: func() any { return new(Band) }}
)

// GetFloats returns a zeroed float slice of length n from the pool,
// allocating when the pool is empty or too small. Return it with PutFloats
// once it is no longer referenced.
func GetFloats(n int) []float64 {
	s := floatPool.Get(n)
	clear(s)
	//das:transfer -- this wrapper is the pool's hand-out point; the caller owns the slice
	return s
}

// PutFloats recycles a slice obtained from GetFloats (or anywhere else).
// The caller must not use the slice afterwards.
func PutFloats(s []float64) {
	floatPool.Put(s)
}

// NewBandPooled is NewBand backed by the pool, except that its data window
// starts with arbitrary contents: fill it, then call ZeroUnfilled before
// anything reads it. Release recycles the band.
func NewBandPooled(width int, globalLen, start, end, lo, hi int64) *Band {
	validateBand(width, globalLen, start, end, lo, hi)
	b := bandPool.Get().(*Band)
	//das:transfer -- the band owns its data buffer; Release returns it to the float pool
	*b = Band{Width: width, GlobalLen: globalLen, Start: start, End: end, Lo: lo, Data: floatPool.Get(int(hi - lo)), stale: true}
	return b
}

// Release recycles a band obtained from NewBandPooled: its data goes back
// to the float pool, which unlike the sync.Pool holding the structs
// survives a GC cycle. The caller must not use the band (or its Data)
// afterwards. Releasing a band built by NewBand is also safe — its buffer
// simply joins the pool — but never release a BandOver: its data is not
// the band's to give away.
func (b *Band) Release() {
	floatPool.Put(b.Data)
	*b = Band{}
	bandPool.Put(b)
}
