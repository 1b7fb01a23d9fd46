package grid

import "fmt"

// Band is the window of a raster's flat element space available to one
// worker: the contiguous range it must produce output for ([Start, End)),
// plus halo elements on both sides that its kernel's dependence pattern
// may read ([Lo, Hi) ⊇ [Start, End)). A storage server running an
// offloaded kernel assembles a Band from its local strips, its local
// replicas (DAS), or remote fetches (NAS); a compute node running the
// kernel client-side assembles it from normal reads.
//
// The values are held as a sorted list of non-overlapping windows over
// [Lo, Hi), each a slice of element values and the global index of its
// first. A band built in one piece (NewBand, BandOf, NewBandPooled, or
// BandOver over a caller's values) is one window over the whole range; a
// band assembled by Lend or LendValues has one window per strip, each —
// where the host allows — a view of the lender's own memory, be that a
// stored strip's bytes or a pipeline node's retained values, so the kernel
// reads them where they lie.
// Windows need not tile [Lo, Hi): a strip a sparse dependence pattern
// never touches is never lent, and that gap is missing like anything
// outside [Lo, Hi) — reading it panics. No reader sees a value nobody put
// there.
//
// Lookups move a cursor (the window last hit), so a band has one reader at
// a time; Narrow gives another reader its own. Every band comes from a
// pool of structs: Release, optional but cheap, returns it.
type Band struct {
	Width     int   // raster width, for row/column boundary handling
	GlobalLen int64 // total elements in the raster
	Start     int64 // first owned element
	End       int64 // one past the last owned element
	Lo        int64 // first element of the data range
	hi        int64 // one past the last element of the data range

	// The cursor: the window the last lookup hit, which At, Span and Run
	// try first. It is a copy, kept flat, so that At inlines.
	curLo   int64
	curVals []float64
	wins    []window // ascending by lo, non-overlapping, none empty
	// stitch holds the rows Span has put together from more than one
	// window; nil until the first one (most bands never stitch).
	stitch *stitched
}

// stitched is a band's scratch rows, taken in turn: a 3×3 stencil holds an
// up, a mid and a down row at once.
type stitched struct {
	rows [3][]float64
	turn int
}

// row returns the next scratch row, n long.
func (st *stitched) row(n int64) []float64 {
	r := st.rows[st.turn]
	if int64(cap(r)) < n {
		r = make([]float64, n)
		st.rows[st.turn] = r
	}
	st.turn = (st.turn + 1) % len(st.rows)
	return r[:n:n]
}

// window is the values of global range [lo, lo+len(vals)).
type window struct {
	lo   int64
	vals []float64
	// owned says vals is the band's to hand to the float pool on Release:
	// memory it allocated, as opposed to a caller's (BandOver) or a lent
	// strip's.
	owned bool
}

func (w window) end() int64 { return w.lo + int64(len(w.vals)) }

// NewBand allocates a band covering owned range [start, end) with data
// range [lo, hi), all zero.
func NewBand(width int, globalLen, start, end, lo, hi int64) *Band {
	b := NewBandLent(width, globalLen, start, end, lo, hi)
	b.set(window{lo: lo, vals: make([]float64, hi-lo), owned: true})
	return b
}

// BandOver wraps data — the values of global range [lo, lo+len(data)) —
// as a band owning [start, end), without copying: NewBand's checks for a
// caller that already holds the values in one piece (the pipeline's grid
// output, reduced strip by strip).
func BandOver(width int, globalLen, start, end, lo int64, data []float64) *Band {
	b := NewBandLent(width, globalLen, start, end, lo, lo+int64(len(data)))
	b.set(window{lo: lo, vals: data})
	return b
}

// set makes w, which spans the data range, the band's one window.
func (b *Band) set(w window) {
	if len(w.vals) > 0 {
		b.wins = append(b.wins, w)
		b.curLo, b.curVals = w.lo, w.vals
	}
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

// BandOf copies the window [lo, hi) out of a whole grid into a band that
// owns it: for a caller that needs the values apart from the grid. A
// reader that leaves the grid unwritten while it reads wraps g.Data with
// BandOver instead, and copies nothing.
func BandOf(g *Grid, start, end, lo, hi int64) *Band {
	b := NewBand(g.W, g.Len(), start, end, lo, hi)
	copy(b.curVals, g.Data[lo:hi])
	return b
}

// Narrow returns a band over the same windows that owns only [start, end)
// of the same data range. It shares the values, which nobody writes, and
// has a cursor and stitch rows of its own: it is how a fused pipeline stage
// runs a kernel over part of its input. It owns none of the memory: it is
// good while the band it came from is, and its Release gives back nothing
// but itself.
func (b *Band) Narrow(start, end int64) *Band {
	sub := NewBandLent(b.Width, b.GlobalLen, start, end, b.Lo, b.hi)
	for _, w := range b.wins {
		w.owned = false
		sub.wins = append(sub.wins, w)
	}
	sub.curLo, sub.curVals = b.curLo, b.curVals
	return sub
}

// Lend adds raw — the on-disk bytes of global range
// [lo, lo+len(raw)/ElemSize) — to the band as a window, clipped to the
// data range; what falls outside is ignored. Where the codec is a view
// and raw is 8-byte aligned the window IS raw's memory: nothing is
// copied, so raw must stay unwritten (and out of any pool) until the last
// read of the band — a stored strip, lent by its holder to a local or a
// remote reader, always is. On any other host, or for an unaligned raw,
// the window is decoded into memory the band owns. Windows may arrive in
// any order but may not overlap; len(raw) must be a multiple of ElemSize.
func (b *Band) Lend(lo int64, raw []byte) {
	if len(raw)%ElemSize != 0 {
		panic(fmt.Sprintf("grid: byte length %d not a multiple of element size %d", len(raw), ElemSize))
	}
	from, to := max(lo, b.Lo), min(lo+int64(len(raw))/ElemSize, b.hi)
	if from >= to {
		return
	}
	raw = raw[(from-lo)*ElemSize : (to-lo)*ElemSize] // decode no more than the band reads
	if vals, ok := floatsView(raw); ok {
		b.insert(window{lo: from, vals: vals})
		return
	}
	vals := floatPool.Get(int(to - from))
	decode(vals, raw)
	b.insert(window{lo: from, vals: vals, owned: true})
}

// LendValues is Lend for a lender that holds element values instead of
// bytes — a pipeline stage's retained node state, or a slice of another
// server's that a band pull returned: vals, the values of global range
// [lo, lo+len(vals)), becomes a window, clipped to the data range. The
// window is always vals' own memory, under Lend's terms: unwritten, and
// out of any pool, until the last read of the band.
func (b *Band) LendValues(lo int64, vals []float64) {
	b.insert(window{lo: lo, vals: vals})
}

// insert clips w to the data range and puts what is left among the
// windows, in order; it is how every lent window arrives, whatever it was
// lent as. A window over ground another already covers is refused.
func (b *Band) insert(w window) {
	from, to := max(w.lo, b.Lo), min(w.end(), b.hi)
	if from >= to {
		return
	}
	w.lo, w.vals = from, w.vals[from-w.lo:to-w.lo]
	at := b.after(from)
	if at > 0 && b.wins[at-1].end() > from {
		at-- // the window from lands in
	}
	if at < len(b.wins) && b.wins[at].lo < to {
		panic(fmt.Sprintf("grid: lent window [%d,%d) overlaps [%d,%d)", from, to, b.wins[at].lo, b.wins[at].end()))
	}
	b.wins = append(b.wins, window{})
	copy(b.wins[at+1:], b.wins[at:])
	b.wins[at] = w
}

// after returns how many windows start at or before element i: the one
// that could hold i is the last of them.
func (b *Band) after(i int64) int {
	lo, hi := 0, len(b.wins)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b.wins[mid].lo <= i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// seek moves the cursor to the window holding element i and returns its
// index, or panics if no window does.
func (b *Band) seek(i int64) int {
	at := b.after(i) - 1
	if at < 0 || i >= b.wins[at].end() {
		b.panicMissing(i)
	}
	b.curLo, b.curVals = b.wins[at].lo, b.wins[at].vals
	return at
}

// Hi returns one past the last element of the data range.
func (b *Band) Hi() int64 { return b.hi }

// Contains reports whether global element i is present in the band.
func (b *Band) Contains(i int64) bool {
	at := b.after(i) - 1
	return at >= 0 && i < b.wins[at].end()
}

// At returns the value of global element i, which must be present in the
// band.
func (b *Band) At(i int64) float64 {
	i -= b.curLo // below curLo wraps past any length
	if uint64(i) >= uint64(len(b.curVals)) {
		i = b.seekOff(i)
	}
	return b.curVals[i]
}

// seekOff moves the cursor to the window of the element at offset off from
// the cursor's start and returns the element's offset in that window. It
// is out of line, and takes and returns what At already has and goes on to
// use, so that At's body stays within the inliner's budget (go build
// -gcflags=-m).
//
//go:noinline
func (b *Band) seekOff(off int64) int64 {
	i := b.curLo + off
	b.seek(i)
	return i - b.curLo
}

// Span returns the values of global range [lo, hi), for kernels that
// stream whole row segments: one range check per span where At pays one
// per element. Like At it panics if an element is missing, naming the
// first one. A range within one window comes back as a window of that
// memory, its capacity ending at hi. A range that straddles windows — a
// row cut by a strip boundary — is stitched into one of the band's
// scratch rows, which are taken in turn: it stays good until the third
// stitched span after it, enough for the three rows a stencil holds.
func (b *Band) Span(lo, hi int64) []float64 {
	if from, to := lo-b.curLo, hi-b.curLo; from >= 0 && from <= to && to <= int64(len(b.curVals)) {
		return b.curVals[from:to:to]
	}
	return b.spanSeek(lo, hi)
}

func (b *Band) spanSeek(lo, hi int64) []float64 {
	if lo >= hi {
		if lo > hi || lo < b.Lo || lo > b.hi {
			b.panicMissing(lo)
		}
		return nil
	}
	at := b.seek(lo)
	if to := hi - b.curLo; to <= int64(len(b.curVals)) {
		return b.curVals[lo-b.curLo : to : to]
	}
	if b.stitch == nil {
		b.stitch = new(stitched)
	}
	row := b.stitch.row(hi - lo)
	next := lo + int64(copy(row, b.curVals[lo-b.curLo:]))
	for next < hi { // the windows that follow must carry on where the last stopped
		if at++; at == len(b.wins) || b.wins[at].lo != next {
			b.panicMissing(next)
		}
		next += int64(copy(row[next-lo:], b.wins[at].vals))
	}
	b.curLo, b.curVals = b.wins[at].lo, b.wins[at].vals
	return row
}

// Run returns the values from element lo up to hi or the end of lo's
// window, whichever comes first: the longest stretch of [lo, hi), lo < hi,
// that is read in place. A kernel or reducer whose range spans many strips
// walks it a run at a time, so nothing is stitched.
func (b *Band) Run(lo, hi int64) []float64 {
	if uint64(lo-b.curLo) >= uint64(len(b.curVals)) {
		b.seek(lo)
	}
	to := min(hi-b.curLo, int64(len(b.curVals)))
	return b.curVals[lo-b.curLo : to : to]
}

// panicMissing reports element i as missing.
//
//go:noinline
func (b *Band) panicMissing(i int64) {
	panic(fmt.Sprintf("grid: element %d outside band [%d,%d)", i, b.Lo, b.hi))
}

// Writable returns the band's own memory for global range [lo, hi), which
// must be non-empty and lie within one window the band allocated (NewBand,
// NewBandPooled), for the band's maker to fill before anything reads it: a
// kernel whose output is another kernel's input writes it here.
func (b *Band) Writable(lo, hi int64) []float64 {
	if w := b.wins[b.seek(lo)]; !w.owned || hi > w.end() {
		panic(fmt.Sprintf("grid: [%d,%d) is not within one window of the band's own memory", lo, hi))
	}
	return b.Span(lo, hi)
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
