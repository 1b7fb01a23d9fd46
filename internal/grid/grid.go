// Package grid provides the raster data model shared by the DAS kernels,
// file system, and workload generators.
//
// Following the paper (§III-B), a raster is stored in a file as a flat,
// row-major one-dimensional array of fixed-size elements, and kernel
// dependence is expressed as signed offsets in that flat element space
// (e.g. the 8-neighbor pattern of an image of width W is
// ±1, ±W, ±W±1). Grid is the in-memory whole raster; Band is the slice of
// flat element space one storage server sees: the range it owns plus the
// halo elements its kernel's dependence pattern reaches.
package grid

import (
	"fmt"
	"math"
)

// ElemSize is the on-disk size in bytes of one raster element. All DAS
// rasters use float64 cells, matching the paper's uniform element size E.
const ElemSize = 8

// Grid is a dense row-major raster of float64 cells.
type Grid struct {
	W, H int
	Data []float64 // len == W*H, row-major
}

// New allocates a zero-filled W×H grid.
func New(w, h int) *Grid {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("grid: dimensions must be positive, got %dx%d", w, h))
	}
	return &Grid{W: w, H: h, Data: make([]float64, w*h)}
}

// Len returns the number of elements.
func (g *Grid) Len() int64 { return int64(g.W) * int64(g.H) }

// SizeBytes returns the raster's on-disk size.
func (g *Grid) SizeBytes() int64 { return g.Len() * ElemSize }

// Idx returns the flat element index of cell (r, c).
func (g *Grid) Idx(r, c int) int64 { return int64(r)*int64(g.W) + int64(c) }

// At returns the value at (r, c).
func (g *Grid) At(r, c int) float64 { return g.Data[g.Idx(r, c)] }

// Set writes the value at (r, c).
func (g *Grid) Set(r, c int, v float64) { g.Data[g.Idx(r, c)] = v }

// Clone returns a deep copy.
func (g *Grid) Clone() *Grid {
	out := New(g.W, g.H)
	copy(out.Data, g.Data)
	return out
}

// Equal reports whether two grids have identical shape and bit-identical
// cells (NaNs compare by bit pattern, so a cloned grid is always Equal).
func (g *Grid) Equal(o *Grid) bool {
	if g.W != o.W || g.H != o.H {
		return false
	}
	for i := range g.Data {
		if math.Float64bits(g.Data[i]) != math.Float64bits(o.Data[i]) {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute cell difference between two
// grids of the same shape.
func (g *Grid) MaxAbsDiff(o *Grid) float64 {
	if g.W != o.W || g.H != o.H {
		panic("grid: MaxAbsDiff on mismatched shapes")
	}
	var maxd float64
	for i := range g.Data {
		if d := math.Abs(g.Data[i] - o.Data[i]); d > maxd {
			maxd = d
		}
	}
	return maxd
}

// Bytes encodes the raster into its on-disk little-endian representation:
// a copy the caller owns, whatever the host.
func (g *Grid) Bytes() []byte {
	return FloatsToBytes(g.Data)
}

// FromBytes decodes a W×H raster from its on-disk representation.
func FromBytes(w, h int, b []byte) (*Grid, error) {
	want := int64(w) * int64(h) * ElemSize
	if int64(len(b)) != want {
		return nil, fmt.Errorf("grid: %dx%d raster needs %d bytes, got %d", w, h, want, len(b))
	}
	g := New(w, h)
	decode(g.Data, b)
	return g, nil
}

// FloatsToBytes encodes elements little-endian.
func FloatsToBytes(vals []float64) []byte {
	return FloatsToBytesInto(nil, vals)
}

// FloatsToBytesInto encodes elements little-endian into dst, reusing its
// backing array when the capacity suffices (allocating otherwise), and
// returns the encoded slice. Hot paths pair it with a pooled buffer to
// avoid a fresh allocation per encode.
func FloatsToBytesInto(dst []byte, vals []float64) []byte {
	n := len(vals) * ElemSize
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		dst = make([]byte, n)
	}
	encode(dst, vals)
	return dst
}

// FloatsFromBytes decodes little-endian elements. An input whose length is
// not a multiple of ElemSize has no valid decoding; rather than silently
// truncating the tail, FloatsFromBytes panics on such input (use
// FloatsFromBytesInto for an error-returning variant).
func FloatsFromBytes(b []byte) []float64 {
	out, err := FloatsFromBytesInto(nil, b)
	if err != nil {
		panic(err.Error())
	}
	return out
}

// FloatsFromBytesInto decodes little-endian elements into dst, reusing its
// backing array when the capacity suffices, and returns the decoded slice.
// Unlike FloatsFromBytes it reports an unaligned input length as an error
// instead of panicking.
func FloatsFromBytesInto(dst []float64, b []byte) ([]float64, error) {
	if len(b)%ElemSize != 0 {
		return nil, fmt.Errorf("grid: byte length %d not a multiple of element size %d", len(b), ElemSize)
	}
	n := len(b) / ElemSize
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		dst = make([]float64, n)
	}
	decode(dst, b)
	return dst, nil
}
