package grid

import "fmt"

// Band is the window of a raster's flat element space available to one
// worker: the contiguous range it must produce output for ([Start, End)),
// plus halo elements on both sides that its kernel's dependence pattern
// may read ([Lo, Hi) ⊇ [Start, End)). A storage server running an
// offloaded kernel assembles a Band from its local strips, its local
// replicas (DAS), or remote fetches (NAS); a compute node running the
// kernel client-side assembles it from normal reads.
type Band struct {
	Width     int   // raster width, for row/column boundary handling
	GlobalLen int64 // total elements in the raster
	Start     int64 // first owned element
	End       int64 // one past the last owned element
	Lo        int64 // first element present in Data
	Data      []float64

	// A pooled band (NewBandPooled) starts with a previous tenant's values
	// in Data. Fill and FillBytes widen [cleanLo, cleanHi), the offsets of
	// Data known good, and ZeroUnfilled settles the rest: the band is
	// cleared only where no fill covered it. stale is false for every
	// other band, whose Data is good from the start.
	stale            bool
	cleanLo, cleanHi int64
}

// NewBand allocates a band covering owned range [start, end) with data
// range [lo, hi).
func NewBand(width int, globalLen, start, end, lo, hi int64) *Band {
	validateBand(width, globalLen, start, end, lo, hi)
	return &Band{
		Width:     width,
		GlobalLen: globalLen,
		Start:     start,
		End:       end,
		Lo:        lo,
		Data:      make([]float64, hi-lo),
	}
}

// BandOver wraps data — the values of global range [lo, lo+len(data)) —
// as a band owning [start, end), without copying: NewBand's checks for a
// caller that already holds the values (a pipeline stage's parent output).
func BandOver(width int, globalLen, start, end, lo int64, data []float64) *Band {
	validateBand(width, globalLen, start, end, lo, lo+int64(len(data)))
	return &Band{Width: width, GlobalLen: globalLen, Start: start, End: end, Lo: lo, Data: data}
}

func validateBand(width int, globalLen, start, end, lo, hi int64) {
	switch {
	case width <= 0:
		panic(fmt.Sprintf("grid: band width %d", width))
	case globalLen%int64(width) != 0:
		// Every stencil derives height = GlobalLen / Width; a ragged last
		// row would silently clamp to the wrong neighbor.
		panic(fmt.Sprintf("grid: band of %d elements is not whole rows of width %d", globalLen, width))
	case lo > start || hi < end || start > end || lo < 0 || hi > globalLen:
		panic(fmt.Sprintf("grid: invalid band [%d,%d) data [%d,%d) of %d", start, end, lo, hi, globalLen))
	}
}

// BandOf copies the window [lo, hi) out of a whole grid. It is the
// reference way to build the band a distributed worker would assemble.
func BandOf(g *Grid, start, end, lo, hi int64) *Band {
	b := NewBand(g.W, g.Len(), start, end, lo, hi)
	copy(b.Data, g.Data[lo:hi])
	return b
}

// Hi returns one past the last element present in Data.
func (b *Band) Hi() int64 { return b.Lo + int64(len(b.Data)) }

// Contains reports whether global element i is present in the band.
func (b *Band) Contains(i int64) bool { return i >= b.Lo && i < b.Hi() }

// At returns the value of global element i, which must be within the
// band's data range.
func (b *Band) At(i int64) float64 {
	i -= b.Lo // below Lo wraps past any length
	if uint64(i) >= uint64(len(b.Data)) {
		b.panicOutside(i)
	}
	return b.Data[i]
}

// Span returns the values of global range [lo, hi) as a window of the
// band's data, for kernels that stream whole row segments: one range check
// per window where At pays one per element. Like At it panics if an
// element is missing, naming the first one. The check is against
// len(Data), never cap — a pooled band's spare capacity holds another
// band's stale values — and the window's own capacity ends at hi.
func (b *Band) Span(lo, hi int64) []float64 {
	lo, hi = lo-b.Lo, hi-b.Lo
	if lo < 0 {
		b.panicOutside(lo)
	}
	if n := int64(len(b.Data)); hi > n {
		b.panicOutside(max(lo, n))
	}
	return b.Data[lo:hi:hi]
}

// panicOutside reports the element at offset off from Lo as missing. It is
// out of line, and takes the offset At has already computed, so that At's
// body stays within the inliner's budget (go build -gcflags=-m).
//
//go:noinline
func (b *Band) panicOutside(off int64) {
	panic(fmt.Sprintf("grid: element %d outside band [%d,%d)", b.Lo+off, b.Lo, b.Hi()))
}

// Fill copies src (global range [lo, lo+len(src))) into the band's data
// window; ranges outside the band are ignored. Workers call Fill once per
// local strip or fetched halo fragment.
func (b *Band) Fill(lo int64, src []float64) {
	from, to := b.clip(lo, lo+int64(len(src)))
	if from == to {
		return
	}
	copy(b.Data[from-b.Lo:to-b.Lo], src[from-lo:to-lo])
	b.cover(from-b.Lo, to-b.Lo)
}

// FillBytes decodes raw on-disk elements (global range
// [lo, lo+len(raw)/ElemSize)) straight into the band's data window — on a
// little-endian host one memmove. Ranges outside the band are ignored;
// len(raw) must be a multiple of ElemSize. raw is only read: a lent stored
// strip is safe.
func (b *Band) FillBytes(lo int64, raw []byte) {
	if len(raw)%ElemSize != 0 {
		panic(fmt.Sprintf("grid: byte length %d not a multiple of element size %d", len(raw), ElemSize))
	}
	from, to := b.clip(lo, lo+int64(len(raw))/ElemSize)
	if from == to {
		return
	}
	decode(b.Data[from-b.Lo:to-b.Lo], raw[(from-lo)*ElemSize:])
	b.cover(from-b.Lo, to-b.Lo)
}

// FillFrom fills global range [lo, hi), which must lie within the band's
// data range, with the on-disk bytes read deposits in the buffer it is
// handed. Where the host allows, that buffer is the band's own memory: a
// client read lands in the band with no copy after it.
func (b *Band) FillFrom(lo, hi int64, read func(raw []byte) error) error {
	if err := fillFrom(b.Span(lo, hi), read); err != nil {
		return err
	}
	b.cover(lo-b.Lo, hi-b.Lo)
	return nil
}

// clip intersects global range [lo, hi) with the band's data range; the
// result is empty (from == to) when they do not meet.
func (b *Band) clip(lo, hi int64) (from, to int64) {
	from, to = max(lo, b.Lo), min(hi, b.Hi())
	if from >= to {
		return 0, 0
	}
	return from, to
}

// cover records that Data[from:to) has just been filled. The covered part
// is kept as one interval: a fill that lands apart from it zeroes the gap
// between them, which a later fill may still overwrite.
func (b *Band) cover(from, to int64) {
	switch {
	case !b.stale:
	case b.cleanLo == b.cleanHi:
		b.cleanLo, b.cleanHi = from, to
	case from > b.cleanHi:
		clear(b.Data[b.cleanHi:from])
		b.cleanHi = to
	case to < b.cleanLo:
		clear(b.Data[to:b.cleanLo])
		b.cleanLo = from
	default:
		b.cleanLo, b.cleanHi = min(b.cleanLo, from), max(b.cleanHi, to)
	}
}

// ZeroUnfilled zeroes whatever part of a pooled band's data no Fill or
// FillBytes covered, after which the band reads exactly like a NewBand
// given the same fills: gaps are 0. Call it once the band is assembled and
// before anything reads it; on any other band it does nothing.
func (b *Band) ZeroUnfilled() {
	if !b.stale {
		return
	}
	clear(b.Data[:b.cleanLo])
	clear(b.Data[b.cleanHi:])
	b.stale = false
}

// OwnedLen returns the number of elements the band must produce.
func (b *Band) OwnedLen() int64 { return b.End - b.Start }

// RowCol converts a flat element index into raster coordinates.
func (b *Band) RowCol(i int64) (row, col int) {
	return int(i / int64(b.Width)), int(i % int64(b.Width))
}

// HaloRange returns the data range [lo, hi) needed to process owned range
// [start, end) with a dependence reaching maxAbsOffset elements each way,
// clamped to the raster.
func HaloRange(start, end, maxAbsOffset, globalLen int64) (lo, hi int64) {
	lo = start - maxAbsOffset
	if lo < 0 {
		lo = 0
	}
	hi = end + maxAbsOffset
	if hi > globalLen {
		hi = globalLen
	}
	return lo, hi
}
