package kernels

import (
	"testing"

	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/workload"
)

// applySink keeps BenchmarkApply's result alive, so the call is not
// optimized away.
var applySink *grid.Grid

// BenchmarkApply times the sequential reference of each bundled kernel at
// the size of a full-scale offload raster, 8192 × 323: the filters over a
// speckled image, the terrain kernels over terrain. It is what each
// set-up pays per reference before anything is simulated.
func BenchmarkApply(b *testing.B) {
	const w, h = 8192, 323
	terrain := workload.Terrain(w, h, 42)
	image := workload.Image(w, h, 42, 0.05)
	reg := Default()
	for _, name := range reg.Names() {
		k, _ := reg.Lookup(name)
		in := terrain
		if name == "gaussian-filter" || name == "median-filter" {
			in = image
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(in.SizeBytes())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				applySink = Apply(k, in)
			}
		})
	}
}
