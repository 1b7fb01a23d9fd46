package kernels

import (
	"fmt"

	"github.com/hpcio/das/internal/features"
	"github.com/hpcio/das/internal/grid"
)

// Gaussian is the 3×3 2D Gaussian smoothing filter from signal and
// medical image processing (Table I): weights 1-2-1 / 2-4-2 / 1-2-1,
// normalized by 16. Borders clamp to the nearest in-grid cell.
type Gaussian struct{}

func (Gaussian) Name() string { return "gaussian-filter" }
func (Gaussian) Description() string {
	return "Basic operation of signal and medical image processing: smooths " +
		"the raw data, producing a same-size smoothed raster."
}
func (Gaussian) Offsets() []features.Offset { return features.EightNeighbor() }
func (Gaussian) Weight() float64            { return 1.2 }

func (Gaussian) ApplyBand(b *grid.Band, out []float64) {
	rowStencil{k: Gaussian{}, corners: true, clampRows: true}.apply(b, out)
}

func (Gaussian) cells(b *grid.Band, out []float64, start, end int64) {
	for i := start; i < end; i++ {
		w := window3x3(b, i)
		out[i-b.Start] = (w[0][0] + 2*w[0][1] + w[0][2] +
			2*w[1][0] + 4*w[1][1] + 2*w[1][2] +
			w[2][0] + 2*w[2][1] + w[2][2]) / 16
	}
}

func (Gaussian) row(up, mid, down, out []float64) {
	n := len(out)
	up, mid, down = up[:n+2], mid[:n+2], down[:n+2]
	for j := range out {
		out[j] = (up[j] + 2*up[j+1] + up[j+2] +
			2*mid[j] + 4*mid[j+1] + 2*mid[j+2] +
			down[j] + 2*down[j+1] + down[j+2]) / 16
	}
}

// Median is the 3×3 median filter from medical image processing, the
// paper's motivating example of an 8-neighbor-dependent operation. It is
// the most compute-heavy of the bundled kernels.
type Median struct{}

func (Median) Name() string { return "median-filter" }
func (Median) Description() string {
	return "Basic operation of medical image processing: replaces each cell " +
		"with the median of its 3×3 neighborhood, suppressing speckle noise."
}
func (Median) Offsets() []features.Offset { return features.EightNeighbor() }
func (Median) Weight() float64            { return 2.5 }

func (Median) ApplyBand(b *grid.Band, out []float64) {
	rowStencil{k: Median{}, corners: true, clampRows: true}.apply(b, out)
}

func (Median) cells(b *grid.Band, out []float64, start, end int64) {
	for i := start; i < end; i++ {
		w := window3x3(b, i)
		out[i-b.Start] = median9(w[0][0], w[0][1], w[0][2], w[1][0], w[1][1], w[1][2], w[2][0], w[2][1], w[2][2])
	}
}

// median9 is the reference median: an insertion sort of the window in
// row-major order, then the middle element. Which of two equal-comparing
// values lands in the middle — a +0 or a −0 — and where a NaN, which
// compares false with everything, leaves the rest, follow from this exact
// sort; the output bits are defined by it.
func median9(v0, v1, v2, v3, v4, v5, v6, v7, v8 float64) float64 {
	v := [9]float64{v0, v1, v2, v3, v4, v5, v6, v7, v8}
	// Insertion sort: 9 elements, branch-friendly, no allocation.
	for i := 1; i < 9; i++ {
		x := v[i]
		j := i - 1
		for j >= 0 && v[j] > x {
			v[j+1] = v[j]
			j--
		}
		v[j+1] = x
	}
	return v[4]
}

// row works on order keys (orderKey), so every compare below is an integer
// CMP/CMOV whatever the raster holds. It sorts each 3-cell column once and
// shares it across the three windows that contain it: with the columns
// sorted, the median of nine is the median of (largest column minimum,
// median of column medians, smallest column maximum). That finds the median
// by value, which fixes its bits unless the value is ±0 — which of the two
// the reference's sort leaves in the middle is not a matter of order — or
// the window holds a NaN, which `>` does not order at all; those windows go
// back to median9. The window's smallest and largest key find the NaN.
func (Median) row(up, mid, down, out []float64) {
	n := len(out)
	up, mid, down = up[:n+2], mid[:n+2], down[:n+2]
	bLo, bMid, bHi := sort3(orderKey(up[0]), orderKey(mid[0]), orderKey(down[0]))
	cLo, cMid, cHi := sort3(orderKey(up[1]), orderKey(mid[1]), orderKey(down[1]))
	for j := range out {
		aLo, aMid, aHi := bLo, bMid, bHi
		bLo, bMid, bHi = cLo, cMid, cHi
		cLo, cMid, cHi = sort3(orderKey(up[j+2]), orderKey(mid[j+2]), orderKey(down[j+2]))
		m := med3(max(aLo, bLo, cLo), med3(aMid, bMid, cMid), min(aHi, bHi, cHi))
		if uint64(m+1) <= 1 || min(aLo, bLo, cLo) < keyNegInf || max(aHi, bHi, cHi) > keyPosInf {
			out[j] = median9(up[j], up[j+1], up[j+2], mid[j], mid[j+1], mid[j+2], down[j], down[j+1], down[j+2])
			continue
		}
		out[j] = keyFloat(m)
	}
}

func sort3(a, b, c int64) (lo, mid, hi int64) {
	ab, ba := min(a, b), max(a, b)
	return min(ab, c), max(ab, min(ba, c)), max(ba, c)
}

func med3(a, b, c int64) int64 {
	return max(min(a, b), min(max(a, b), c))
}

// HorizontalBlur is a 1-D box blur along rows with the given radius: its
// dependence is ±1..±Radius within the row, so its reach — and therefore
// the halo the improved distribution needs — is independent of the raster
// width, unlike the 8-neighbor family. It demonstrates that the layout
// planner sizes replication from the pattern, not from a fixed rule.
type HorizontalBlur struct {
	Radius int
}

func (h HorizontalBlur) Name() string { return "horizontal-blur" }
func (h HorizontalBlur) Description() string {
	return fmt.Sprintf("1-D box blur along rows, radius %d: dependence stays "+
		"within the row regardless of raster width.", h.radius())
}
func (h HorizontalBlur) Offsets() []features.Offset {
	var offs []features.Offset
	for i := 1; i <= h.radius(); i++ {
		offs = append(offs, features.Offset{Const: int64(-i)}, features.Offset{Const: int64(i)})
	}
	return offs
}
func (h HorizontalBlur) Weight() float64 { return 0.3 * float64(h.radius()) }

func (h HorizontalBlur) radius() int {
	if h.Radius <= 0 {
		return 1
	}
	return h.Radius
}

// ApplyBand streams each row segment's unclamped cells — those at least
// Radius columns from both row ends — over one span; the cells whose
// window clamps at a row end go through the per-element code.
func (h HorizontalBlur) ApplyBand(b *grid.Band, out []float64) {
	r := int64(h.radius())
	width := int64(b.Width)
	taps := float64(2*r + 1)
	for i := b.Start; i < b.End; {
		rowStart := i / width * width
		segEnd := min(rowStart+width, b.End)
		lo, hi := within(i, segEnd, rowStart+r, rowStart+width-r)
		h.cells(b, out, i, lo)
		if lo < hi {
			win := b.Span(lo-r, hi+r)
			o := out[lo-b.Start : hi-b.Start]
			for j := range o {
				sum := 0.0
				for _, v := range win[j : j+int(2*r)+1] {
					sum += v
				}
				o[j] = sum / taps
			}
		}
		h.cells(b, out, hi, segEnd)
		i = segEnd
	}
}

func (h HorizontalBlur) cells(b *grid.Band, out []float64, start, end int64) {
	r := h.radius()
	width := int64(b.Width)
	for i := start; i < end; i++ {
		row := i / width
		rowLo, rowHi := row*width, (row+1)*width-1
		sum, n := 0.0, 0
		for d := int64(-r); d <= int64(r); d++ {
			j := i + d
			if j < rowLo {
				j = rowLo // clamp within the row
			}
			if j > rowHi {
				j = rowHi
			}
			sum += b.At(j)
			n++
		}
		out[i-b.Start] = sum / float64(n)
	}
}

// StrideKernel is the synthetic operator of the paper's Fig. 6: each
// element depends on the two elements ±Stride away in flat element space.
// Its value is the average of the two dependencies blended with the
// center. It exists to exercise the bandwidth predictor: by choosing
// Stride relative to the strip size and server count, the dependence can
// be made perfectly local (Eq. (17) holds) or maximally hostile.
type StrideKernel struct {
	// OpName lets ablations register several strides side by side.
	OpName string
	Stride int64
	// W is the relative compute weight; zero means 1.0.
	W float64
}

func (s StrideKernel) Name() string {
	if s.OpName != "" {
		return s.OpName
	}
	return "stride-op"
}
func (s StrideKernel) Description() string {
	return "Synthetic two-dependence operator (paper Fig. 6): reads the " +
		"elements at ±stride and blends them with the center."
}
func (s StrideKernel) Offsets() []features.Offset { return features.Stride(s.Stride) }
func (s StrideKernel) Weight() float64 {
	if s.W == 0 {
		return 1.0
	}
	return s.W
}

// ApplyBand streams the cells whose two dependencies are both inside the
// raster, a run at a time: the longest stretch the center and both
// dependencies can each be read in place, so a band of many strips — with
// gaps where the stride skips some — is never stitched. The |Stride|
// cells at either end of the raster, where a dependency clamps, go
// through the per-element code.
func (s StrideKernel) ApplyBand(b *grid.Band, out []float64) {
	reach := max(s.Stride, -s.Stride)
	lo, hi := within(b.Start, b.End, reach, b.GlobalLen-reach)
	s.cells(b, out, b.Start, lo)
	for i := lo; i < hi; {
		mid := b.Run(i, hi)
		left := b.Run(i-s.Stride, hi-s.Stride)
		right := b.Run(i+s.Stride, hi+s.Stride)
		n := min(len(mid), len(left), len(right))
		o := out[i-b.Start:][:n]
		left, mid, right = left[:n], mid[:n], right[:n]
		for j := range o {
			o[j] = 0.5*mid[j] + 0.25*(left[j]+right[j])
		}
		i += int64(n)
	}
	s.cells(b, out, hi, b.End)
}

func (s StrideKernel) cells(b *grid.Band, out []float64, start, end int64) {
	for i := start; i < end; i++ {
		left := b.At(clampFlat(i-s.Stride, b.GlobalLen))
		right := b.At(clampFlat(i+s.Stride, b.GlobalLen))
		out[i-b.Start] = 0.5*b.At(i) + 0.25*(left+right)
	}
}

func clampFlat(i, total int64) int64 {
	if i < 0 {
		return 0
	}
	if i >= total {
		return total - 1
	}
	return i
}

// ScatterKernel reads dependencies at ± each of several strides: a
// synthetic worst case for active storage whose offloading cost grows
// with the number of distinct strips touched. With strides spanning k
// different strip distances, every strip needs 2k remote strips under an
// unaligned placement — the pattern the prediction core exists to reject.
type ScatterKernel struct {
	OpName  string
	Strides []int64
	W       float64
}

func (s ScatterKernel) Name() string {
	if s.OpName != "" {
		return s.OpName
	}
	return "scatter-op"
}
func (s ScatterKernel) Description() string {
	return "Synthetic multi-stride operator: averages the elements at ± each " +
		"stride with the center; a worst case for offloading."
}
func (s ScatterKernel) Offsets() []features.Offset {
	var offs []features.Offset
	for _, st := range s.Strides {
		offs = append(offs, features.Offset{Const: -st}, features.Offset{Const: st})
	}
	return offs
}
func (s ScatterKernel) Weight() float64 {
	if s.W == 0 {
		return 1.0
	}
	return s.W
}

// ApplyBand is StrideKernel's split with the reach of the longest stride,
// taken one dependency at a time: each pass adds one offset's image of the
// range into out, run by run, in the order the per-element code adds them,
// and the last blends in the center.
func (s ScatterKernel) ApplyBand(b *grid.Band, out []float64) {
	var reach int64
	for _, st := range s.Strides {
		reach = max(reach, st, -st)
	}
	lo, hi := within(b.Start, b.End, reach, b.GlobalLen-reach)
	s.cells(b, out, b.Start, lo)
	o := out[lo-b.Start : hi-b.Start]
	clear(o)
	for _, st := range s.Strides {
		for _, off := range [2]int64{-st, st} {
			for i := lo; i < hi; {
				run := b.Run(i+off, hi+off)
				sum := o[i-lo:][:len(run)]
				for j, v := range run {
					sum[j] += v
				}
				i += int64(len(run))
			}
		}
	}
	n := float64(2 * len(s.Strides))
	for i := lo; i < hi; {
		run := b.Run(i, hi)
		sum := o[i-lo:][:len(run)]
		for j, v := range run {
			sum[j] = 0.5*v + 0.5*sum[j]/n
		}
		i += int64(len(run))
	}
	s.cells(b, out, hi, b.End)
}

func (s ScatterKernel) cells(b *grid.Band, out []float64, start, end int64) {
	n := float64(2 * len(s.Strides))
	for i := start; i < end; i++ {
		sum := 0.0
		for _, st := range s.Strides {
			sum += b.At(clampFlat(i-st, b.GlobalLen))
			sum += b.At(clampFlat(i+st, b.GlobalLen))
		}
		out[i-b.Start] = 0.5*b.At(i) + 0.5*sum/n
	}
}
