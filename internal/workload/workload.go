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
// per axis. Interpolating a lattice row along x depends on the lattice row
// alone, which the 64, 16 or 4 pixel rows of one octave cell share: each
// octave keeps its top and bottom lattice rows interpolated and redoes one
// only when the pixel row moves onto a new lattice row — the old bottom
// becomes the top, and only the new bottom is interpolated. One pass per
// pixel row then adds the slope and the three octaves' vertical blends.
// The arithmetic per pixel is the per-pixel definition's, operation for
// operation (terrainReference, workload_test.go, holds it bit-equal).
func Terrain(w, h int, seed uint64) *grid.Grid {
	g := grid.New(w, h)
	cells := [3]float64{64, 16, 4}
	amps := [3]float64{100, 25, 6}
	var oct [3]octave
	for i, cell := range cells {
		l := newLattice(int(float64(w)/cell)+2, int(float64(h)/cell)+2, seed+uint64(i)*7919)
		oct[i] = octave{l: l, x: newAxis(w, cell, l.w), y: newAxis(h, cell, l.h),
			top: make([]float64, w), bot: make([]float64, w), ti: -1, bi: -1}
	}
	for r := 0; r < h; r++ {
		for i := range oct {
			oct[i].seek(r)
		}
		row := g.Data[r*w : (r+1)*w]
		t0, b0, fy0, gy0 := oct[0].top[:len(row)], oct[0].bot[:len(row)], oct[0].y.f[r], oct[0].y.g[r]
		t1, b1, fy1, gy1 := oct[1].top[:len(row)], oct[1].bot[:len(row)], oct[1].y.f[r], oct[1].y.g[r]
		t2, b2, fy2, gy2 := oct[2].top[:len(row)], oct[2].bot[:len(row)], oct[2].y.f[r], oct[2].y.g[r]
		for c := range row {
			// Regional slope draining toward the origin corner.
			v := 0.05 * float64(r+c)
			v += amps[0] * (t0[c]*gy0 + b0[c]*fy0)
			v += amps[1] * (t1[c]*gy1 + b1[c]*fy1)
			v += amps[2] * (t2[c]*gy2 + b2[c]*fy2)
			row[c] = v
		}
	}
	return g
}

// octave is one noise octave of Terrain: its lattice, its two axes, and
// the lattice rows ti and bi interpolated along x into top and bot (-1:
// none yet).
type octave struct {
	l        *lattice
	x, y     axis
	top, bot []float64
	ti, bi   int
}

// seek readies top and bot for pixel row r: the lattice rows y.i0[r] and
// y.i1[r], interpolated along x. Rows only advance, so a new top is the
// old bottom whenever the pixel row crosses onto the next lattice row.
func (o *octave) seek(r int) {
	j0, j1 := o.y.i0[r], o.y.i1[r]
	if j0 != o.ti {
		if j0 == o.bi {
			o.top, o.bot, o.ti, o.bi = o.bot, o.top, o.bi, o.ti
		} else {
			o.interp(o.top, j0)
			o.ti = j0
		}
	}
	if j1 != o.bi {
		o.interp(o.bot, j1)
		o.bi = j1
	}
}

// interp fills dst with lattice row j interpolated along x at every
// column.
func (o *octave) interp(dst []float64, j int) {
	src, x := o.l.v[j*o.l.w:(j+1)*o.l.w], o.x
	i0, i1, f, g := x.i0[:len(dst)], x.i1[:len(dst)], x.f[:len(dst)], x.g[:len(dst)]
	for c := range dst {
		dst[c] = src[i0[c]]*g[c] + src[i1[c]]*f[c]
	}
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
// column and the cosine taken once per row, and the speckle draws are
// compared as integers (below) rather than converted to floats
// (imageReference, workload_test.go, holds it bit-equal to the per-pixel
// definition).
func Image(w, h int, seed uint64, speckleFrac float64) *grid.Grid {
	g := grid.New(w, h)
	r := NewRNG(seed)
	speckle := below(speckleFrac)
	sin80 := make([]float64, w)
	for col := range sin80 {
		sin80[col] = 80 * math.Sin(float64(col)/23)
	}
	for row := 0; row < h; row++ {
		cos := math.Cos(float64(row) / 17)
		out := g.Data[row*w : (row+1)*w]
		for col := range out {
			v := 128 + sin80[col]*cos
			if r.Next()>>11 < speckle {
				if r.Next()>>11 < 1<<52 { // Float() < 0.5
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

// below returns the integer form of the test Float() < frac: Float is
// x/2⁵³ for the draw's top 53 bits x, and x/2⁵³ < frac holds exactly when
// x < ⌈frac·2⁵³⌉, clamped to [0, 2⁵³] — 0 (never) for a NaN or a frac at
// or below 0, 2⁵³ (always) for one at or above 1. Scaling by 2⁵³ is exact.
func below(frac float64) uint64 {
	switch {
	case !(frac > 0):
		return 0
	case frac >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(frac * (1 << 53)))
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
