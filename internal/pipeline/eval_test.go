package pipeline

import (
	"math"
	"testing"

	"github.com/hpcio/das/internal/bufpool"
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/workload"
)

// audited runs the rest of the test under bufpool.Audit: every pool Put
// scribbles, so a transient released before its reader returns feeds that
// reader garbage, and a pooled buffer still out once the test's platforms
// are closed fails it. Call it first, so its check runs after every other
// cleanup.
func audited(t *testing.T) {
	done := bufpool.Audit()
	t.Cleanup(func() {
		if n := done(); n != 0 {
			t.Errorf("%d pooled buffers outstanding", n)
		}
	})
}

// TestEvalFromInputMatchesPerElement: the fused from-input recursion hands
// every stage a band over its parent's values with exactly that stage's
// halo, on sub-ranges that start and end mid-row. Compiled over the
// row-streaming kernels and over their per-element oracles
// (kernels.PerElement), the same DAG must evaluate to the same bits; a NaN
// matches any NaN, since which payload a sum of two NaNs keeps is the
// compiler's operand order on either path.
func TestEvalFromInputMatchesPerElement(t *testing.T) {
	audited(t)
	reg, oracle := kernels.Default(), kernels.NewRegistry()
	for _, name := range reg.Names() {
		k, _ := reg.Lookup(name)
		oracle.Register(kernels.PerElement(k))
	}
	// All six default kernels: two branches off the input joined and
	// smoothed twice, a 4-neighbor stage feeding an 8-neighbor one.
	d := kernels.DAG{Name: "oracle", Nodes: []kernels.Node{
		{ID: "med", Kind: kernels.KindKernel, Op: "median-filter"},
		{ID: "dir", Kind: kernels.KindKernel, Op: "flow-routing", Parents: []string{"med"}},
		{ID: "acc", Kind: kernels.KindKernel, Op: "flow-accumulation", Parents: []string{"dir"}},
		{ID: "slope", Kind: kernels.KindKernel, Op: "surface-slope"},
		{ID: "sum", Kind: kernels.KindCombine, Op: "add", Parents: []string{"acc", "slope"}},
		{ID: "diff", Kind: kernels.KindKernel, Op: "diffusion", Parents: []string{"sum"}},
		{ID: "out", Kind: kernels.KindKernel, Op: "gaussian-filter", Parents: []string{"diff"}},
	}}
	special := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 5.7, 8}
	rng := workload.NewRNG(14)
	for n := 0; n < 200; n++ {
		w, h := 1+int(rng.Intn(12)), 1+int(rng.Intn(9))
		g := grid.New(w, h)
		for i := range g.Data {
			switch rng.Intn(4) {
			case 0:
				g.Data[i] = special[rng.Intn(int64(len(special)))]
			case 1:
				g.Data[i] = float64(rng.Intn(10))
			default:
				g.Data[i] = 200*rng.Float() - 100
			}
		}
		lo := rng.Intn(g.Len())
		hi := lo + 1 + rng.Intn(g.Len()-lo)

		eval := func(r *kernels.Registry) []float64 {
			pl, err := Compile(d, r, kernels.DefaultCombiners(), nil, w, 0)
			if err != nil {
				t.Fatal(err)
			}
			bLo, bHi := grid.HaloRange(lo, hi, pl.Nodes[pl.GridOut].EvalHalo, g.Len())
			out := make([]float64, hi-lo)
			pl.evalFromInput(out, pl.GridOut, lo, hi, grid.BandOf(g, lo, hi, bLo, bHi), nil)
			return out
		}
		got, want := eval(reg), eval(oracle)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
				t.Fatalf("%d×%d raster, range [%d,%d): element %d = %v (%#x), per-element %v (%#x)",
					w, h, lo, hi, lo+int64(i), got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
}
