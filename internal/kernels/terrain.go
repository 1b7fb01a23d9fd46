package kernels

import (
	"math"

	"github.com/hpcio/das/internal/features"
	"github.com/hpcio/das/internal/grid"
)

// Slope is the surface slope analysis operation §III-C lists among the
// 8-neighbor kernels: the terrain gradient magnitude at each cell by
// Horn's third-order finite difference over the 3×3 neighborhood, in
// elevation units per cell spacing.
type Slope struct{}

func (Slope) Name() string { return "surface-slope" }
func (Slope) Description() string {
	return "Terrain analysis operation from GIS: gradient magnitude of the " +
		"elevation surface by Horn's method over the 3×3 neighborhood."
}
func (Slope) Offsets() []features.Offset { return features.EightNeighbor() }
func (Slope) Weight() float64            { return 1.3 }

func (Slope) ApplyBand(b *grid.Band, out []float64) {
	rowStencil{k: Slope{}, corners: true, clampRows: true}.apply(b, out)
}

func (Slope) cells(b *grid.Band, out []float64, start, end int64) {
	for i := start; i < end; i++ {
		w := window3x3(b, i)
		// Horn (1981): weighted central differences along each axis.
		dzdx := ((w[0][2] + 2*w[1][2] + w[2][2]) - (w[0][0] + 2*w[1][0] + w[2][0])) / 8
		dzdy := ((w[2][0] + 2*w[2][1] + w[2][2]) - (w[0][0] + 2*w[0][1] + w[0][2])) / 8
		out[i-b.Start] = math.Sqrt(dzdx*dzdx + dzdy*dzdy)
	}
}

func (Slope) row(up, mid, down, out []float64) {
	n := len(out)
	up, mid, down = up[:n+2], mid[:n+2], down[:n+2]
	for j := range out {
		dzdx := ((up[j+2] + 2*mid[j+2] + down[j+2]) - (up[j] + 2*mid[j] + down[j])) / 8
		dzdy := ((down[j] + 2*down[j+1] + down[j+2]) - (up[j] + 2*up[j+1] + up[j+2])) / 8
		out[j] = math.Sqrt(dzdx*dzdx + dzdy*dzdy)
	}
}

// Diffusion is a 4-neighbor kernel — the other dependence family §III-C
// calls out as most useful. One Jacobi step of the heat equation: each
// cell moves a quarter of the way toward the mean of its von Neumann
// neighborhood. Its halo is half the 8-neighbor reach (±W), which the
// layout planner exploits.
type Diffusion struct{}

func (Diffusion) Name() string { return "diffusion" }
func (Diffusion) Description() string {
	return "4-neighbor smoothing: one Jacobi step of the heat equation over " +
		"the von Neumann neighborhood (digital elevation model conditioning)."
}
func (Diffusion) Offsets() []features.Offset { return features.FourNeighbor() }
func (Diffusion) Weight() float64            { return 0.8 }

func (Diffusion) ApplyBand(b *grid.Band, out []float64) {
	rowStencil{k: Diffusion{}, clampRows: true}.apply(b, out)
}

func (Diffusion) cells(b *grid.Band, out []float64, start, end int64) {
	width := int64(b.Width)
	height := int(b.GlobalLen / width)
	for i := start; i < end; i++ {
		r, c := b.RowCol(i)
		center := b.At(i)
		sum := 0.0
		for _, d := range [4][2]int{{-1, 0}, {0, -1}, {0, 1}, {1, 0}} {
			nr := clamp(r+d[0], 0, height-1)
			nc := clamp(c+d[1], 0, b.Width-1)
			sum += b.At(int64(nr)*width + int64(nc))
		}
		out[i-b.Start] = 0.75*center + 0.25*(sum/4)
	}
}

// row reads no corner: up and down cover the cells' own columns.
func (Diffusion) row(up, mid, down, out []float64) {
	n := len(out)
	up, mid, down = up[:n], mid[:n+2], down[:n]
	for j := range out {
		sum := 0.0
		sum += up[j]
		sum += mid[j]
		sum += mid[j+2]
		sum += down[j]
		out[j] = 0.75*mid[j+1] + 0.25*(sum/4)
	}
}
