package pipeline

import (
	"math"
	"slices"
	"testing"

	"github.com/hpcio/das/internal/bufpool"
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/workload"
)

// audited runs the rest of the test under bufpool.Audit: every pool Put
// scribbles, so a pooled band released before its reader returns feeds that
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

// TestEvalFromInputOncePerNode evaluates, from the input, the targets of
// every round and of every round's catch-up on a branching DAG — a node
// read by two consumers with different halos, combines, a second root —
// over the first, an interior and the last strip run. The values must be
// slices of the sequential reference bit for bit, and the bill must be one
// evaluation per lineage node over the run plus the most any of its
// consumers reads past it: weight × |HaloRange(run, need)|.
func TestEvalFromInputOncePerNode(t *testing.T) {
	audited(t)
	reg, combs := kernels.Default(), kernels.DefaultCombiners()
	d := kernels.DAG{Name: "diamond", Nodes: []kernels.Node{
		{ID: "a", Kind: kernels.KindKernel, Op: "gaussian-filter"},
		{ID: "r", Kind: kernels.KindKernel, Op: "surface-slope"},                        // the second root
		{ID: "c", Kind: kernels.KindCombine, Op: "add", Parents: []string{"a", "r"}},    // reads a with no halo
		{ID: "b", Kind: kernels.KindKernel, Op: "flow-routing", Parents: []string{"a"}}, // reads a with W+1
		{ID: "s", Kind: kernels.KindCombine, Op: "add", Parents: []string{"c", "b"}},
		{ID: "out", Kind: kernels.KindKernel, Op: "diffusion", Parents: []string{"s"}},
	}}
	const w, h, stripRows = 16, 16, 2
	g := workload.Terrain(w, h, 5)
	pl, err := Compile(d, reg, combs, nil, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	total := g.Len()

	// Each node's reference raster: the DAG cut down to the node and its
	// ancestors, which makes it the sink.
	ref := make([]*grid.Grid, len(pl.Nodes))
	for i := range pl.Nodes {
		keep := map[string]bool{pl.Nodes[i].ID: true}
		for j := i; j >= 0; j-- {
			if keep[pl.Nodes[j].ID] {
				for _, p := range pl.Nodes[j].Parents {
					keep[pl.Nodes[p].ID] = true
				}
			}
		}
		sub := kernels.DAG{Name: pl.Nodes[i].ID}
		for _, n := range d.Nodes {
			if keep[n.ID] {
				sub.Nodes = append(sub.Nodes, n)
			}
		}
		if ref[i], err = kernels.ApplyDAG(sub, reg, combs, g); err != nil {
			t.Fatal(err)
		}
	}

	// need(i): what the lineage's consumers read past the run, found
	// forwards from each consumer rather than in the evaluator's backward
	// sweep; -1 outside the lineage.
	need := func(targets []int) []int64 {
		need := make([]int64, len(pl.Nodes))
		var of func(i int) int64
		of = func(i int) int64 {
			v := int64(-1)
			if slices.Contains(targets, i) {
				v = 0
			}
			for j, c := range pl.Nodes {
				if !slices.Contains(c.Parents, i) {
					continue
				}
				if cn := of(j); cn >= 0 {
					halo := c.Halo
					if c.Kind == kernels.KindCombine {
						halo = 0
					}
					v = max(v, cn+halo)
				}
			}
			return v
		}
		for i := range need {
			need[i] = of(i)
		}
		return need
	}

	var sets [][]int
	for round := 0; round < pl.Rounds(); round++ {
		sets = append(sets, pl.roundTargets(round), pl.catchUpTargets(round))
	}
	stripElems := int64(stripRows * w)
	runs := [][2]int64{{0, 2 * stripElems}, {3 * stripElems, 5 * stripElems}, {total - 2*stripElems, total}}
	for _, targets := range sets {
		lin := pl.lineageOf(targets)
		want := need(targets)
		var depth int64
		for _, tg := range targets {
			depth = max(depth, pl.Nodes[tg].EvalHalo)
		}
		if lin.depth != depth {
			t.Errorf("targets %v: input depth %d, want the deepest EvalHalo %d", targets, lin.depth, depth)
		}
		for _, run := range runs {
			lo, hi := run[0], run[1]
			var wantBill float64
			for i, nd := range want {
				if nd >= 0 {
					rlo, rhi := grid.HaloRange(lo, hi, nd, total)
					wantBill += float64(rhi-rlo) * pl.Nodes[i].Weight
				}
			}
			bLo, bHi := grid.HaloRange(lo, hi, lin.depth, total)
			var bill float64
			out := pl.evalFromInput(lin, lo, hi, grid.BandOf(g, lo, hi, bLo, bHi), func(elems int64, weight float64) {
				bill += float64(elems) * weight
			})
			if bill != wantBill {
				t.Errorf("targets %v, run [%d,%d): billed %v weighted elements, want %v", targets, lo, hi, bill, wantBill)
			}
			for i, v := range out {
				if slices.Contains(targets, i) != (v != nil) {
					t.Fatalf("targets %v: node %d returned %v", targets, i, v != nil)
				}
				for j, x := range v {
					if math.Float64bits(x) != math.Float64bits(ref[i].Data[lo+int64(j)]) {
						t.Fatalf("targets %v, run [%d,%d): node %q element %d = %v, reference %v",
							targets, lo, hi, pl.Nodes[i].ID, lo+int64(j), x, ref[i].Data[lo+int64(j)])
					}
				}
			}
		}
	}
}

// TestEvalFromInputMatchesPerElement: the from-input evaluation hands
// every stage a band over its parent's values, wide enough for that
// stage's halo, on sub-ranges that start and end mid-row. Compiled over the
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
			lin := pl.lineageOf([]int{pl.GridOut})
			bLo, bHi := grid.HaloRange(lo, hi, lin.depth, g.Len())
			return pl.evalFromInput(lin, lo, hi, grid.BandOf(g, lo, hi, bLo, bHi), nil)[pl.GridOut]
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
