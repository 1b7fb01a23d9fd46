package predict

import (
	"testing"

	"github.com/hpcio/das/internal/features"
	"github.com/hpcio/das/internal/layout"
)

// The prediction core runs on the request path of every DAS submission;
// these benchmarks size its cost at the paper's full-scale geometry
// (24 GB file, 64 KiB strips, 12 servers, 8-neighbor pattern).
func fullScaleParams() Params {
	return Params{
		ElemSize:     8,
		StripSize:    64 * 1024,
		FileSize:     24 << 20,
		Width:        8192,
		OutputFactor: 1,
	}
}

func BenchmarkAnalyzeRoundRobin(b *testing.B) {
	pat := features.Pattern{Name: "flow-routing", Offsets: features.EightNeighbor()}
	p := fullScaleParams()
	lay := layout.NewRoundRobin(12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(pat, p, lay); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecideImprovedLayout(b *testing.B) {
	pat := features.Pattern{Name: "flow-routing", Offsets: features.EightNeighbor()}
	p := fullScaleParams()
	lay := layout.NewGroupedReplicated(12, 8, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decide(pat, p, lay); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecideImprovedLayoutAllocations holds BenchmarkDecideImprovedLayout's
// call to at most 100 allocations: asking a layout for a strip's holders
// allocates nothing, so what is left is the run lists and the decision's
// own strings, not one list per strip and offset.
func TestDecideImprovedLayoutAllocations(t *testing.T) {
	pat := features.Pattern{Name: "flow-routing", Offsets: features.EightNeighbor()}
	p := fullScaleParams()
	lay := layout.NewGroupedReplicated(12, 8, 2)
	n := testing.AllocsPerRun(5, func() {
		if _, err := Estimate(Kernel(pat), p, lay, Observations{}); err != nil {
			t.Fatal(err)
		}
	})
	if n > 100 {
		t.Errorf("Estimate at the full-scale geometry: %v allocations, want at most 100", n)
	}
}
