package kernels

import "github.com/hpcio/das/internal/grid"

// rowStencil is the one driver every 3×3 kernel's ApplyBand runs on. A
// stencil is a streaming loop — its cost is the rows it reads, each reused
// by the next output row (Casper, PAPERS.md) — so the driver walks the
// owned range a row segment at a time, takes the up/mid/down windows of
// the segment's interior columns as three range-checked spans, and hands
// them to the kernel's interior loop, which indexes them directly. What
// the windows cannot express goes through the kernel's per-element code:
// the two border columns (their neighborhood clamps sideways; a raster
// narrower than three columns is nothing else) and — for a kernel that
// skips out-of-grid neighbors where the others clamp — the first and last
// raster row. The per-element code is also the oracle the row loops are
// tested against, bit for bit.
type rowStencil struct {
	k rowKernel
	// corners says whether the kernel reads the diagonal neighbors. A
	// 4-neighbor kernel's band carries only the ±W halo, so its up and
	// down windows must stop at the segment's own columns.
	corners bool
	// clampRows says whether the row above the first raster row (below
	// the last) is that row itself, as in window3x3.
	clampRows bool
}

func (s rowStencil) apply(b *grid.Band, out []float64) {
	w := int64(b.Width)
	lastRow := b.GlobalLen/w - 1
	var reach int64
	if s.corners {
		reach = 1
	}
	for i := b.Start; i < b.End; {
		r := i / w
		rowStart := r * w
		segEnd := min(rowStart+w, b.End)
		lo, hi := within(i, segEnd, rowStart+1, rowStart+w-1) // interior cells
		if !s.clampRows && (r == 0 || r == lastRow) {
			lo, hi = segEnd, segEnd // no window for a neighbor that is skipped
		}
		up, down := lo-w, lo+w
		if r == 0 {
			up = lo
		}
		if r == lastRow {
			down = lo
		}
		s.k.cells(b, out, i, lo)
		if n := hi - lo; n > 0 {
			s.k.row(b.Span(up-reach, up+n+reach), b.Span(lo-1, hi+1), b.Span(down-reach, down+n+reach),
				out[lo-b.Start:hi-b.Start])
		}
		s.k.cells(b, out, hi, segEnd)
		i = segEnd
	}
}

// within returns [start, end) ∩ [lo, hi) placed inside [start, end] — an
// empty intersection comes back with lo == hi — so that [start, lo) and
// [hi, end) are always exactly the cells left over for the per-element
// path.
func within(start, end, lo, hi int64) (int64, int64) {
	lo = min(max(lo, start), end)
	return lo, max(min(hi, end), lo)
}

// rowKernel is what a kernel gives the row driver.
type rowKernel interface {
	cellwise
	// row computes len(out) consecutive interior cells. mid starts one
	// column left of the first cell and ends one right of the last; up
	// and down cover the same columns with corners, the cells' own
	// columns without.
	row(up, mid, down, out []float64)
}

// cellwise is the per-element path every bundled kernel keeps: one At per
// dependency, clamped or skipped at the raster's edges cell by cell.
type cellwise interface {
	// cells computes global elements [start, end) ⊆ [b.Start, b.End) into
	// out, which is indexed from b.Start.
	cells(b *grid.Band, out []float64, start, end int64)
}

// PerElement returns k with ApplyBand replaced by k's per-element path
// over the whole owned range: the oracle the row-streaming ApplyBand of
// every bundled kernel must match bit for bit, NaN, ±0 and ±Inf included.
// It panics for a kernel that has no such path.
func PerElement(k Kernel) Kernel { return perElement{k, k.(cellwise)} }

type perElement struct {
	Kernel
	c cellwise
}

func (p perElement) ApplyBand(b *grid.Band, out []float64) { p.c.cells(b, out, b.Start, b.End) }

// window3x3 gathers the 3×3 neighborhood of element i one At at a time,
// clamping coordinates at raster borders (boundary cells reuse their
// nearest in-grid neighbor, so "data elements on boundary" never
// communicate, matching the paper's exclusion of boundary elements). The
// result is indexed [dr+1][dc+1].
func window3x3(b *grid.Band, i int64) (w [3][3]float64) {
	width := int64(b.Width)
	height := int(b.GlobalLen / width)
	r, c := b.RowCol(i)
	for dr := -1; dr <= 1; dr++ {
		nr := clamp(r+dr, 0, height-1)
		for dc := -1; dc <= 1; dc++ {
			nc := clamp(c+dc, 0, b.Width-1)
			w[dr+1][dc+1] = b.At(int64(nr)*width + int64(nc))
		}
	}
	return w
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
