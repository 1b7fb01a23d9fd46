// Package workload generates the synthetic rasters the reproduction feeds
// the analysis kernels: terrain-like digital elevation models for the GIS
// kernels (flow-routing, flow-accumulation) and speckled intensity images
// for the filtering kernels. The paper used real 24–60 GB datasets on a
// Lustre testbed; these generators produce deterministic stand-ins with
// the same access behaviour — every byte is read, every byte is produced —
// which is all the schemes' costs depend on.
package workload

import (
	"math"

	"github.com/hpcio/das/internal/grid"
)

// RNG is a splitmix64 generator: tiny, fast, and identical on every
// platform, keeping workloads reproducible without math/rand's global
// state. It is the package's single deterministic source — the raster
// generators, the Zipf file-popularity sampler, and the multi-tenant
// engine's hot-set rotation all draw from it, always with an explicit
// seed threaded from the caller.
type RNG struct{ state uint64 }

// NewRNG returns a generator seeded with the given state.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Next returns the next 64 uniform bits.
func (r *RNG) Next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform value in [0, n); n must be positive. The modulo
// bias over a 64-bit draw is negligible for the small ranges (file
// counts, strip counts) the workloads use.
func (r *RNG) Intn(n int64) int64 {
	if n <= 0 {
		panic("workload: Intn on non-positive n")
	}
	return int64(r.Next() % uint64(n))
}

// Float returns a uniform value in [0, 1).
func (r *RNG) Float() float64 { return float64(r.Next()>>11) / float64(1<<53) }

// Terrain produces a w×h digital elevation model: several octaves of
// value noise (bilinear interpolation of random lattices) over a gentle
// regional slope, the kind of surface flow-routing is meant for.
//
// A pixel's value is, per octave, the lattice sampled at (c/cell, r/cell):
// the lattice cell and the smoothstepped fraction depend on the column
// alone along x and on the row alone along y, so both are tabulated once
// per axis and the pixel loop only interpolates. The arithmetic per pixel
// is the per-pixel definition's, operation for operation
// (terrainReference, workload_test.go, holds it bit-equal).
func Terrain(w, h int, seed uint64) *grid.Grid {
	g := grid.New(w, h)
	octaves := []struct {
		cell float64
		amp  float64
	}{
		{cell: 64, amp: 100},
		{cell: 16, amp: 25},
		{cell: 4, amp: 6},
	}
	lattices := make([]*lattice, len(octaves))
	cols, rows := make([]axis, len(octaves)), make([]axis, len(octaves))
	for i, o := range octaves {
		l := newLattice(int(float64(w)/o.cell)+2, int(float64(h)/o.cell)+2, seed+uint64(i)*7919)
		lattices[i], cols[i], rows[i] = l, newAxis(w, o.cell, l.w), newAxis(h, o.cell, l.h)
	}
	for r := 0; r < h; r++ {
		row := g.Data[r*w : (r+1)*w]
		for c := range row {
			// Regional slope draining toward the origin corner.
			row[c] = 0.05 * float64(r+c)
		}
		for i, o := range octaves {
			l, x, y := lattices[i], cols[i], rows[i]
			top, bot := l.v[y.i0[r]*l.w:], l.v[y.i1[r]*l.w:]
			fy, gy := y.f[r], y.g[r]
			for c := range row {
				t := top[x.i0[c]]*x.g[c] + top[x.i1[c]]*x.f[c]
				b := bot[x.i0[c]]*x.g[c] + bot[x.i1[c]]*x.f[c]
				row[c] += o.amp * (t*gy + b*fy)
			}
		}
	}
	return g
}

// lattice is a random value lattice sampled with bilinear interpolation.
type lattice struct {
	w, h int
	v    []float64
}

func newLattice(w, h int, seed uint64) *lattice {
	r := NewRNG(seed)
	l := &lattice{w: w, h: h, v: make([]float64, w*h)}
	for i := range l.v {
		l.v[i] = r.Float()
	}
	return l
}

// axis tabulates, for each of n pixel coordinates along one axis of an
// octave, the two lattice coordinates it interpolates between (clamped to
// the lattice's last) and the weight of each: f, the fraction smoothstepped
// for continuous derivatives, for the far one and g = 1-f for the near.
type axis struct {
	i0, i1 []int
	f, g   []float64
}

func newAxis(n int, cell float64, limit int) axis {
	a := axis{i0: make([]int, n), i1: make([]int, n), f: make([]float64, n), g: make([]float64, n)}
	for p := 0; p < n; p++ {
		x := float64(p) / cell
		x0 := int(x)
		f := x - float64(x0)
		f = f * f * (3 - 2*f)
		a.i0[p], a.i1[p] = min(x0, limit-1), min(x0+1, limit-1)
		a.f[p], a.g[p] = f, 1-f
	}
	return a
}

// Image produces a w×h intensity raster: a smooth sinusoidal field with
// salt-and-pepper speckle on speckleFrac of the pixels — the input the
// median and Gaussian filters are evaluated on. The field is
// 128 + 80·sin(col/23)·cos(row/17): the sine factor is tabulated per
// column and the cosine taken once per row (imageReference,
// workload_test.go, holds it bit-equal to the per-pixel definition).
func Image(w, h int, seed uint64, speckleFrac float64) *grid.Grid {
	g := grid.New(w, h)
	r := NewRNG(seed)
	sin80 := make([]float64, w)
	for col := range sin80 {
		sin80[col] = 80 * math.Sin(float64(col)/23)
	}
	for row := 0; row < h; row++ {
		cos := math.Cos(float64(row) / 17)
		out := g.Data[row*w : (row+1)*w]
		for col := range out {
			v := 128 + sin80[col]*cos
			if r.Float() < speckleFrac {
				if r.Float() < 0.5 {
					v = 0
				} else {
					v = 255
				}
			}
			out[col] = v
		}
	}
	return g
}

// Ramp produces a deterministic, structureless raster (value = flat
// index); useful in tests where the exact values matter more than realism.
func Ramp(w, h int) *grid.Grid {
	g := grid.New(w, h)
	for i := range g.Data {
		g.Data[i] = float64(i)
	}
	return g
}
