package workload

import (
	"testing"

	"github.com/hpcio/das/internal/grid"
)

// The generators at the size of a full-scale schemes raster, 8192 × 387:
// each set-up of a raster workload generates a terrain, an image or both
// before anything is simulated. The result goes to sink, so the call is
// not optimized away.
var sink *grid.Grid

func BenchmarkTerrain(b *testing.B) {
	const w, h = 8192, 387
	b.SetBytes(w * h * 8)
	for i := 0; i < b.N; i++ {
		sink = Terrain(w, h, uint64(i))
	}
}

func BenchmarkImage(b *testing.B) {
	const w, h = 8192, 387
	b.SetBytes(w * h * 8)
	for i := 0; i < b.N; i++ {
		sink = Image(w, h, uint64(i), 0.05)
	}
}
