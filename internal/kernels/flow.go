package kernels

import (
	"github.com/hpcio/das/internal/features"
	"github.com/hpcio/das/internal/grid"
)

// Direction codes produced by FlowRouting. Code 0 marks a pit or flat cell
// (no strictly lower neighbor); codes 1–8 index the eight neighbors in
// clockwise order starting north-west.
const (
	DirNone = 0
	DirNW   = 1
	DirN    = 2
	DirNE   = 3
	DirE    = 4
	DirSE   = 5
	DirS    = 6
	DirSW   = 7
	DirW    = 8
)

// dirDelta maps a direction code to its (dr, dc) step.
var dirDelta = [9][2]int{
	DirNone: {0, 0},
	DirNW:   {-1, -1},
	DirN:    {-1, 0},
	DirNE:   {-1, 1},
	DirE:    {0, 1},
	DirSE:   {1, 1},
	DirS:    {1, 0},
	DirSW:   {1, -1},
	DirW:    {0, -1},
}

// DirStep returns the (dr, dc) step for a direction code.
func DirStep(code int) (dr, dc int) {
	d := dirDelta[code]
	return d[0], d[1]
}

// FlowRouting is the single-flow-direction (D8) operation from terrain
// analysis (paper Fig. 1): each cell drains toward its lowest 8-neighbor.
type FlowRouting struct{}

func (FlowRouting) Name() string { return "flow-routing" }
func (FlowRouting) Description() string {
	return "Basic operation of terrain analysis from GIS: assigns each cell " +
		"a flow direction toward its lowest 8-neighbor (single flow direction)."
}
func (FlowRouting) Offsets() []features.Offset { return features.EightNeighbor() }
func (FlowRouting) Weight() float64            { return 1.0 }

// ApplyBand emits the direction code of each owned cell: the clockwise
// index (1–8, from north-west) of the strictly lowest neighbor, 0 if the
// center is not higher than any neighbor. Ties choose the first neighbor
// in clockwise order, keeping the result deterministic.
func (FlowRouting) ApplyBand(b *grid.Band, out []float64) {
	rowStencil{k: FlowRouting{}, corners: true, clampRows: true}.apply(b, out)
}

func (FlowRouting) cells(b *grid.Band, out []float64, start, end int64) {
	for i := start; i < end; i++ {
		w := window3x3(b, i)
		center := w[1][1]
		best, bestVal := DirNone, center
		for code := DirNW; code <= DirW; code++ {
			d := dirDelta[code]
			v := w[d[0]+1][d[1]+1]
			if v < bestVal {
				best, bestVal = code, v
			}
		}
		out[i-b.Start] = float64(best)
	}
}

// row is the clockwise scan of cells as a knock-out on route keys
// (routeKey): the eight neighbors meet in clockwise pairs, the earlier of a
// pair keeps a tie, and the last one standing drains the cell if it is
// strictly below the center. Every compare is on integers and every `if`
// assigns one value, which compiles to CMP/CMOV, so a round costs the same
// however rough the terrain; a cell's key is made once and carried across
// the three windows that share its column. The key order is `<` wherever
// the scan's `<` can be true, so no window goes back to the scan: a NaN
// neighbor sorts above every number and wins only against other NaNs, and
// a NaN center, which nothing is below, is the one case asked after.
func (FlowRouting) row(up, mid, down, out []float64) {
	n := len(out)
	aU, aM, aD := routeKey(up[0]), routeKey(mid[0]), routeKey(down[0])
	bU, bM, bD := routeKey(up[1]), routeKey(mid[1]), routeKey(down[1])
	up, mid, down = up[2:n+2], mid[2:n+2], down[2:n+2] // each window's right column
	for j := range out {
		cU, cM, cD := routeKey(up[j]), routeKey(mid[j]), routeKey(down[j])
		// NW meets N, NE meets E, SE meets S, SW meets W.
		k1, d1 := min(aU, bU), DirNW
		if bU < aU {
			d1 = DirN
		}
		k3, d3 := min(cU, cM), DirNE
		if cM < cU {
			d3 = DirE
		}
		k5, d5 := min(cD, bD), DirSE
		if bD < cD {
			d5 = DirS
		}
		k7, d7 := min(aD, aM), DirSW
		if aM < aD {
			d7 = DirW
		}
		if k3 < k1 {
			d1 = d3
		}
		if k7 < k5 {
			d5 = d7
		}
		k1, k5 = min(k1, k3), min(k5, k7)
		if k5 < k1 {
			d1 = d5
		}
		// Two ifs, not one `||`, which would branch.
		if min(k1, k5) >= bM {
			d1 = DirNone
		}
		if bM > routeKeyInf {
			d1 = DirNone
		}
		out[j] = float64(d1)
		aU, aM, aD = bU, bM, bD
		bU, bM, bD = cU, cM, cD
	}
}

// FlowAccumulation is the local accumulation step from terrain analysis:
// given a direction raster (FlowRouting output), each cell's value is its
// own unit of water plus one unit per 8-neighbor draining directly into
// it. The paper treats flow-accumulation as the same 8-neighbor dependence
// pattern consuming the intermediate image flow-routing produced; the full
// basin-wide accumulation (which is a global computation) is available
// separately as Accumulate.
type FlowAccumulation struct{}

func (FlowAccumulation) Name() string { return "flow-accumulation" }
func (FlowAccumulation) Description() string {
	return "Basic operation of terrain analysis from GIS: accumulates flow as " +
		"the weight of all cells flowing into each downslope cell."
}
func (FlowAccumulation) Offsets() []features.Offset { return features.EightNeighbor() }
func (FlowAccumulation) Weight() float64            { return 1.1 }

// ApplyBand counts, for each owned cell, the neighbors whose direction
// code points back at it. Unlike the clamping stencil kernels, inflow only
// counts genuine in-grid neighbors: a clamped duplicate of the center must
// not drain into itself.
func (FlowAccumulation) ApplyBand(b *grid.Band, out []float64) {
	rowStencil{k: FlowAccumulation{}, corners: true}.apply(b, out)
}

func (FlowAccumulation) cells(b *grid.Band, out []float64, start, end int64) {
	width := int64(b.Width)
	height := int(b.GlobalLen / width)
	for i := start; i < end; i++ {
		r, c := b.RowCol(i)
		inflow := 1.0 // the cell's own unit
		for code := DirNW; code <= DirW; code++ {
			d := dirDelta[code]
			nr, nc := r+d[0], c+d[1]
			if nr < 0 || nr >= height || nc < 0 || nc >= b.Width {
				continue
			}
			neighborDir := int(b.At(int64(nr)*width + int64(nc)))
			if neighborDir < DirNW || neighborDir > DirW {
				continue // not a flow direction (pit, flat, or foreign data)
			}
			// The neighbor drains into us if its direction step is the
			// exact opposite of the step that reached it.
			nd := dirDelta[neighborDir]
			if nd[0] == -d[0] && nd[1] == -d[1] {
				inflow++
			}
		}
		out[i-b.Start] = inflow
	}
}

// row runs only where all eight neighbors are in the grid (the driver keeps
// the border columns and the first and last raster row away from it), so
// each neighbor drains into the cell exactly when its truncated code is the
// direction pointing back: the north-west neighbor must flow south-east,
// and so on round. A column is truncated and counted once, when it enters
// on the right, for each of the three places it will hold (drainsInto): a
// cell's inflow is the sum of three counts, and no compare is a branch.
func (FlowAccumulation) row(up, mid, down, out []float64) {
	n := len(out)
	aW, _, _ := drainsInto(up[0], mid[0], down[0])
	bW, bC, _ := drainsInto(up[1], mid[1], down[1])
	up, mid, down = up[2:n+2], mid[2:n+2], down[2:n+2] // each window's right column
	for j := range out {
		cW, cC, cE := drainsInto(up[j], mid[j], down[j])
		out[j] = float64(1 + aW + bC + cE)
		aW, bW, bC = bW, cW, cC
	}
}

// drainsInto counts the cells of one window column — its up, mid and down
// row — that drain into the window's center when the column lies west of
// the center, holds it, or lies east of it.
func drainsInto(u, m, d float64) (west, center, east int) {
	cu, cm, cd := int(u), int(m), int(d)
	if cu == DirSE {
		west++
	}
	if cm == DirE {
		west++
	}
	if cd == DirNE {
		west++
	}
	if cu == DirS {
		center++
	}
	if cd == DirN {
		center++
	}
	if cu == DirSW {
		east++
	}
	if cm == DirW {
		east++
	}
	if cd == DirNW {
		east++
	}
	return west, center, east
}

// Accumulate computes full basin-wide flow accumulation over a direction
// raster: the number of cells (including itself) whose water eventually
// passes through each cell. It is a global computation (the reason the
// paper's offloadable kernel is the local step) and is provided for the
// terrain analysis example. Cycles cannot occur because directions follow
// strict descent; cells in flats (DirNone) simply absorb their inflow.
func Accumulate(dirs *grid.Grid) *grid.Grid {
	acc := grid.New(dirs.W, dirs.H)
	indeg := make([]int, dirs.Len())
	target := make([]int64, dirs.Len()) // downstream cell, -1 if none
	for i := range acc.Data {
		acc.Data[i] = 1
		target[i] = -1
	}
	for r := 0; r < dirs.H; r++ {
		for c := 0; c < dirs.W; c++ {
			code := int(dirs.At(r, c))
			if code == DirNone {
				continue
			}
			dr, dc := DirStep(code)
			nr, nc := r+dr, c+dc
			if nr < 0 || nr >= dirs.H || nc < 0 || nc >= dirs.W {
				continue // drains off the map
			}
			t := dirs.Idx(nr, nc)
			target[dirs.Idx(r, c)] = t
			indeg[t]++
		}
	}
	queue := make([]int64, 0, dirs.Len())
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, int64(i))
		}
	}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		t := target[i]
		if t < 0 {
			continue
		}
		acc.Data[t] += acc.Data[i]
		indeg[t]--
		if indeg[t] == 0 {
			queue = append(queue, t)
		}
	}
	return acc
}
