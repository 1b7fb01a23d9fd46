package kernels

import (
	"math"
	"runtime"
	"testing"
	"unsafe"

	"github.com/hpcio/das/internal/grid"
)

// allocatedBytes returns the heap bytes fn allocates, run once after a
// warm-up call that fills the band pool.
func allocatedBytes(fn func()) uint64 {
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// overlaps reports whether two float slices share any element's memory.
func overlaps(a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	a0, b0 := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&b[0]))
	a1, b1 := a0+uintptr(len(a))*8, b0+uintptr(len(b))*8
	return a0 < b1 && b0 < a1
}

// Apply reads its input where it lies: on a 256 × 256 raster every kernel
// allocates its output and little else (a band copy of the input would
// double that), leaves every input bit as it was, and hands back a raster
// of its own.
func TestApplyReadsInPlace(t *testing.T) {
	g := lcgGrid(256, 256, 11)
	g.Data[1000] = math.NaN()
	g.Data[2000] = math.Copysign(0, -1)
	orig := g.Clone()
	outBytes := uint64(g.SizeBytes())
	for _, k := range allKernels() {
		var out *grid.Grid
		got := allocatedBytes(func() { out = Apply(k, g) })
		if limit := outBytes + outBytes/20; got > limit {
			t.Errorf("%s: Apply allocates %d bytes, want ≤ %d (1.05× its %d-byte output)", k.Name(), got, limit, outBytes)
		}
		for i, v := range g.Data {
			if math.Float64bits(v) != math.Float64bits(orig.Data[i]) {
				t.Fatalf("%s: Apply changed input element %d: %v → %v", k.Name(), i, orig.Data[i], v)
			}
		}
		if overlaps(out.Data, g.Data) {
			t.Fatalf("%s: Apply's output shares memory with its input", k.Name())
		}
	}
}

// partReducer counts a band's owned elements into slots of one backing
// array it was given, so that ReduceBand allocates nothing and what
// ReduceStriped allocates is its own.
type partReducer struct {
	backing []float64
	next    *int
}

func (partReducer) Name() string        { return "part" }
func (partReducer) Description() string { return "test reducer: owned element count" }
func (partReducer) PartialLen() int     { return 1 }
func (partReducer) Weight() float64     { return 1 }

func (r partReducer) ReduceBand(b *grid.Band) []float64 {
	p := r.backing[*r.next : *r.next+1 : *r.next+1]
	*r.next++
	p[0] = float64(b.OwnedLen())
	return p
}

func (partReducer) Merge(partials [][]float64) []float64 {
	sum := 0.0
	for _, p := range partials {
		sum += p[0]
	}
	return []float64{sum}
}

// ReduceStriped reads each strip in place: going from 4 strips to 64 adds
// no allocation per strip (the race detector's pool, which drops a quarter
// of what is put back, may add a band struct now and then), and every
// element is folded exactly once.
func TestReduceStripedAllocatesNothingPerStrip(t *testing.T) {
	g := lcgGrid(256, 256, 5)
	allocs := func(strips int64) float64 {
		next := 0
		r := partReducer{backing: make([]float64, strips), next: &next}
		fold := func() {
			next = 0
			if agg := ReduceStriped(r, g, g.Len()/strips); agg[0] != float64(g.Len()) {
				t.Fatalf("%d strips fold %v elements, want %d", strips, agg[0], g.Len())
			}
		}
		fold()
		return testing.AllocsPerRun(20, fold)
	}
	few, many := allocs(4), allocs(64)
	if perStrip := (many - few) / (64 - 4); perStrip >= 1 {
		t.Errorf("ReduceStriped: %.1f allocations at 4 strips, %.1f at 64: %.2f per strip, want fewer than one", few, many, perStrip)
	}
	t.Logf("ReduceStriped: %.1f allocations at 4 strips, %.1f at 64", few, many)
}

// ApplyDAG allocates one raster per kernel or combine node and no copy of
// any input it reads: a diamond of two kernels, a combine and a kernel
// over the combine, on 256 × 256, allocates at most four rasters' worth.
func TestApplyDAGAllocatesOneGridPerNode(t *testing.T) {
	reg, combs, _ := testRegistries()
	g := lcgGrid(256, 256, 3)
	d := DAG{Name: "diamond-tail", Nodes: []Node{
		{ID: "a", Kind: KindKernel, Op: "gaussian-filter"},
		{ID: "b", Kind: KindKernel, Op: "median-filter"},
		{ID: "j", Kind: KindCombine, Op: "sub", Parents: []string{"a", "b"}},
		{ID: "r", Kind: KindKernel, Op: "flow-routing", Parents: []string{"j"}},
		{ID: "s", Kind: KindReduce, Op: "stats", Parents: []string{"r"}},
	}}
	const gridNodes = 4
	var got *grid.Grid
	bytes := allocatedBytes(func() {
		var err error
		if got, err = ApplyDAG(d, reg, combs, g); err != nil {
			t.Fatal(err)
		}
	})
	gridBytes := uint64(g.SizeBytes())
	if limit := gridNodes * (gridBytes + gridBytes/20); bytes > limit {
		t.Errorf("ApplyDAG allocates %d bytes, want ≤ %d (%d rasters of %d bytes, 5%% spare)", bytes, limit, gridNodes, gridBytes)
	}
	ga, _ := reg.Lookup("gaussian-filter")
	md, _ := reg.Lookup("median-filter")
	fr, _ := reg.Lookup("flow-routing")
	a, b := Apply(ga, g), Apply(md, g)
	for i := range a.Data {
		a.Data[i] -= b.Data[i]
	}
	if want := Apply(fr, a); !got.Equal(want) {
		t.Fatalf("ApplyDAG diverges from its nodes applied by hand: max|Δ| = %g", got.MaxAbsDiff(want))
	}
}
