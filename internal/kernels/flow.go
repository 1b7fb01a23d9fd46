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

// row is the clockwise scan of cells, unrolled over the row windows.
func (FlowRouting) row(up, mid, down, out []float64) {
	n := len(out)
	up, mid, down = up[:n+2], mid[:n+2], down[:n+2]
	for j := range out {
		best, bestVal := float64(DirNone), mid[j+1]
		if v := up[j]; v < bestVal {
			best, bestVal = DirNW, v
		}
		if v := up[j+1]; v < bestVal {
			best, bestVal = DirN, v
		}
		if v := up[j+2]; v < bestVal {
			best, bestVal = DirNE, v
		}
		if v := mid[j+2]; v < bestVal {
			best, bestVal = DirE, v
		}
		if v := down[j+2]; v < bestVal {
			best, bestVal = DirSE, v
		}
		if v := down[j+1]; v < bestVal {
			best, bestVal = DirS, v
		}
		if v := down[j]; v < bestVal {
			best, bestVal = DirSW, v
		}
		if v := mid[j]; v < bestVal {
			best = DirW
		}
		out[j] = best
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
// and so on round.
func (FlowAccumulation) row(up, mid, down, out []float64) {
	n := len(out)
	up, mid, down = up[:n+2], mid[:n+2], down[:n+2]
	for j := range out {
		inflow := 1.0
		if int(up[j]) == DirSE {
			inflow++
		}
		if int(up[j+1]) == DirS {
			inflow++
		}
		if int(up[j+2]) == DirSW {
			inflow++
		}
		if int(mid[j+2]) == DirW {
			inflow++
		}
		if int(down[j+2]) == DirNW {
			inflow++
		}
		if int(down[j+1]) == DirN {
			inflow++
		}
		if int(down[j]) == DirNE {
			inflow++
		}
		if int(mid[j]) == DirE {
			inflow++
		}
		out[j] = inflow
	}
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
