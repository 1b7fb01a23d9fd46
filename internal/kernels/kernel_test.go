package kernels

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/hpcio/das/internal/grid"
)

// lcgGrid builds a deterministic pseudo-random grid.
func lcgGrid(w, h int, seed uint64) *grid.Grid {
	g := grid.New(w, h)
	s := seed
	for i := range g.Data {
		s = s*6364136223846793005 + 1442695040888963407
		g.Data[i] = float64(s>>40) / float64(1<<24)
	}
	return g
}

func allKernels() []Kernel {
	return []Kernel{
		FlowRouting{}, FlowAccumulation{}, Gaussian{}, Median{}, Slope{}, Diffusion{},
		StrideKernel{Stride: 5}, ScatterKernel{Strides: []int64{3, 17, 40}},
		HorizontalBlur{Radius: 2},
	}
}

// TestBandedEqualsSequential is the core functional invariant behind every
// scheme comparison: applying a kernel over any banded decomposition with
// sufficient halo must reproduce the sequential result exactly.
func TestBandedEqualsSequential(t *testing.T) {
	g := lcgGrid(16, 12, 42)
	for _, k := range allKernels() {
		k := k
		t.Run(k.Name(), func(t *testing.T) {
			want := Apply(k, g)
			halo := Pattern(k).MaxAbsOffset(g.W)
			got := grid.New(g.W, g.H)
			// Uneven band cuts, deliberately not row-aligned.
			cuts := []int64{0, 7, 30, 31, 64, 100, g.Len()}
			for i := 0; i+1 < len(cuts); i++ {
				start, end := cuts[i], cuts[i+1]
				lo, hi := grid.HaloRange(start, end, halo, g.Len())
				b := grid.BandOf(g, start, end, lo, hi)
				out := make([]float64, end-start)
				k.ApplyBand(b, out)
				copy(got.Data[start:end], out)
			}
			if !want.Equal(got) {
				t.Errorf("banded result differs from sequential (max diff %g)", want.MaxAbsDiff(got))
			}
		})
	}
}

func TestFlowRoutingDirections(t *testing.T) {
	// A tilted plane drains toward its lowest corner.
	g := grid.New(4, 4)
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			g.Set(r, c, float64(r+c)) // lowest at (0,0): interior cells point NW
		}
	}
	dirs := Apply(FlowRouting{}, g)
	if got := int(dirs.At(2, 2)); got != DirNW {
		t.Errorf("interior direction = %d, want DirNW", got)
	}
	// The global minimum is a pit.
	if got := int(dirs.At(0, 0)); got != DirNone {
		t.Errorf("minimum cell direction = %d, want DirNone", got)
	}
}

func TestFlowRoutingDeterministicTieBreak(t *testing.T) {
	// A flat grid has no strictly lower neighbor anywhere: all DirNone.
	g := grid.New(5, 5)
	dirs := Apply(FlowRouting{}, g)
	for _, v := range dirs.Data {
		if v != DirNone {
			t.Fatalf("flat grid produced direction %v", v)
		}
	}
}

func TestFlowRoutingCodesInRange(t *testing.T) {
	dirs := Apply(FlowRouting{}, lcgGrid(20, 20, 7))
	for i, v := range dirs.Data {
		if v != math.Trunc(v) || v < 0 || v > 8 {
			t.Fatalf("element %d: direction %v out of range", i, v)
		}
	}
}

func TestDirStepRoundTrip(t *testing.T) {
	for code := DirNW; code <= DirW; code++ {
		dr, dc := DirStep(code)
		if dr == 0 && dc == 0 {
			t.Errorf("code %d has zero step", code)
		}
	}
	if dr, dc := DirStep(DirNone); dr != 0 || dc != 0 {
		t.Error("DirNone must have zero step")
	}
}

func TestFlowAccumulationCountsInflow(t *testing.T) {
	// Directions: everything in row 0 points E except the last cell.
	// Build a 1x4-like scenario inside a 3x4 grid of DirNone.
	dirs := grid.New(4, 3)
	dirs.Set(1, 0, DirE)
	dirs.Set(1, 1, DirE)
	dirs.Set(1, 2, DirE)
	acc := Apply(FlowAccumulation{}, dirs)
	// Local step: cell (1,1) receives from (1,0) only: 1 + 1 = 2.
	if got := acc.At(1, 1); got != 2 {
		t.Errorf("acc(1,1) = %v, want 2", got)
	}
	// Cell (1,3) receives from (1,2): 2.
	if got := acc.At(1, 3); got != 2 {
		t.Errorf("acc(1,3) = %v, want 2", got)
	}
	// Cell (1,0) receives nothing: 1.
	if got := acc.At(1, 0); got != 1 {
		t.Errorf("acc(1,0) = %v, want 1", got)
	}
}

func TestFlowAccumulationNoSelfInflowAtBorders(t *testing.T) {
	// A border cell whose clamped neighbor coincides with itself must not
	// count itself as inflow: with all directions DirNone, every cell is 1.
	dirs := grid.New(4, 4)
	acc := Apply(FlowAccumulation{}, dirs)
	for _, v := range acc.Data {
		if v != 1 {
			t.Fatalf("accumulation with no flow = %v, want all 1", v)
		}
	}
}

func TestAccumulateChain(t *testing.T) {
	// A straight W→E channel: accumulation grows 1,2,3,...,W along the row.
	dirs := grid.New(5, 1)
	for c := 0; c < 4; c++ {
		dirs.Set(0, c, DirE)
	}
	acc := Accumulate(dirs)
	for c := 0; c < 5; c++ {
		if got := acc.At(0, c); got != float64(c+1) {
			t.Errorf("acc(0,%d) = %v, want %d", c, got, c+1)
		}
	}
}

func TestAccumulateConservation(t *testing.T) {
	// On a random terrain, every cell contributes exactly one unit that
	// ends in some pit or drains off the map; accumulation at any cell can
	// never exceed the cell count, and the minimum is 1.
	g := lcgGrid(12, 9, 3)
	dirs := Apply(FlowRouting{}, g)
	acc := Accumulate(dirs)
	for i, v := range acc.Data {
		if v < 1 || v > float64(g.Len()) {
			t.Fatalf("acc[%d] = %v out of range", i, v)
		}
	}
}

func TestGaussianPreservesConstantField(t *testing.T) {
	g := grid.New(8, 8)
	for i := range g.Data {
		g.Data[i] = 3.25
	}
	out := Apply(Gaussian{}, g)
	for i, v := range out.Data {
		if v != 3.25 {
			t.Fatalf("element %d: %v, want 3.25 (weights must sum to 1)", i, v)
		}
	}
}

func TestGaussianSmoothsImpulse(t *testing.T) {
	g := grid.New(5, 5)
	g.Set(2, 2, 16)
	out := Apply(Gaussian{}, g)
	if out.At(2, 2) != 4 {
		t.Errorf("center = %v, want 4 (16·4/16)", out.At(2, 2))
	}
	if out.At(2, 1) != 2 || out.At(1, 1) != 1 {
		t.Errorf("edge %v corner %v, want 2 and 1", out.At(2, 1), out.At(1, 1))
	}
	if out.At(0, 0) != 0 {
		t.Errorf("far corner = %v, want 0", out.At(0, 0))
	}
}

func TestMedianSuppressesImpulse(t *testing.T) {
	g := grid.New(5, 5)
	g.Set(2, 2, 1000) // single speckle
	out := Apply(Median{}, g)
	if out.At(2, 2) != 0 {
		t.Errorf("median at speckle = %v, want 0", out.At(2, 2))
	}
}

func TestMedianIdempotentOnConstant(t *testing.T) {
	g := grid.New(6, 4)
	for i := range g.Data {
		g.Data[i] = -7
	}
	out := Apply(Median{}, g)
	if !out.Equal(g) {
		t.Error("median of constant field changed values")
	}
}

func TestMedianIsOrderStatistic(t *testing.T) {
	// The median of any 3×3 window is one of its inputs and lies between
	// the window min and max.
	g := lcgGrid(10, 10, 11)
	out := Apply(Median{}, g)
	var mn, mx float64 = math.Inf(1), math.Inf(-1)
	for _, v := range g.Data {
		mn, mx = math.Min(mn, v), math.Max(mx, v)
	}
	for i, v := range out.Data {
		if v < mn || v > mx {
			t.Fatalf("median[%d] = %v outside input range [%v,%v]", i, v, mn, mx)
		}
	}
}

func TestStrideKernelClampsAtEnds(t *testing.T) {
	g := grid.New(10, 1)
	for i := range g.Data {
		g.Data[i] = float64(i)
	}
	out := Apply(StrideKernel{Stride: 3}, g)
	// Element 0: left clamps to 0, right = 3 → 0.5·0 + 0.25·(0+3) = 0.75.
	if out.At(0, 0) != 0.75 {
		t.Errorf("out[0] = %v, want 0.75", out.At(0, 0))
	}
	// Interior element 5: 0.5·5 + 0.25·(2+8) = 5.
	if out.At(0, 5) != 5 {
		t.Errorf("out[5] = %v, want 5", out.At(0, 5))
	}
}

func TestSlopeFlatIsZeroTiltIsConstant(t *testing.T) {
	flat := grid.New(8, 8)
	for _, v := range Apply(Slope{}, flat).Data {
		if v != 0 {
			t.Fatalf("flat terrain has slope %v", v)
		}
	}
	// A plane z = 2x has |∇z| = 2 away from the clamped borders.
	tilt := grid.New(8, 8)
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			tilt.Set(r, c, 2*float64(c))
		}
	}
	slope := Apply(Slope{}, tilt)
	for r := 1; r < 7; r++ {
		for c := 1; c < 7; c++ {
			if math.Abs(slope.At(r, c)-2) > 1e-12 {
				t.Fatalf("slope(%d,%d) = %v, want 2", r, c, slope.At(r, c))
			}
		}
	}
}

func TestDiffusionConservesConstantAndContracts(t *testing.T) {
	flat := grid.New(8, 8)
	for i := range flat.Data {
		flat.Data[i] = 5
	}
	if !Apply(Diffusion{}, flat).Equal(flat) {
		t.Error("diffusion moved a constant field")
	}
	// An impulse must spread: center decreases, neighbors increase.
	g := grid.New(5, 5)
	g.Set(2, 2, 16)
	out := Apply(Diffusion{}, g)
	if out.At(2, 2) >= 16 || out.At(2, 1) <= 0 {
		t.Errorf("impulse did not diffuse: center %v neighbor %v", out.At(2, 2), out.At(2, 1))
	}
}

func TestDiffusionFourNeighborHaloSuffices(t *testing.T) {
	// The 4-neighbor pattern reaches only ±W: a band with that halo must
	// reproduce the sequential result (regression against accidentally
	// reading diagonals).
	g := lcgGrid(12, 10, 21)
	k := Diffusion{}
	if got := Pattern(k).MaxAbsOffset(g.W); got != int64(g.W) {
		t.Fatalf("4-neighbor reach = %d, want %d", got, g.W)
	}
	want := Apply(k, g)
	mid := g.Len() / 2
	got := grid.New(g.W, g.H)
	for _, span := range [][2]int64{{0, mid}, {mid, g.Len()}} {
		lo, hi := grid.HaloRange(span[0], span[1], int64(g.W), g.Len())
		b := grid.BandOf(g, span[0], span[1], lo, hi)
		out := make([]float64, span[1]-span[0])
		k.ApplyBand(b, out)
		copy(got.Data[span[0]:span[1]], out)
	}
	if !want.Equal(got) {
		t.Error("diffusion banded result differs with exact 4-neighbor halo")
	}
}

func TestHorizontalBlurStaysInRow(t *testing.T) {
	// Two rows with very different magnitudes: blurring one row must not
	// leak values from the other, even at row ends.
	g := grid.New(6, 2)
	for c := 0; c < 6; c++ {
		g.Set(0, c, 1)
		g.Set(1, c, 1000)
	}
	out := Apply(HorizontalBlur{Radius: 2}, g)
	for c := 0; c < 6; c++ {
		if out.At(0, c) != 1 {
			t.Errorf("row 0 col %d = %v, want 1 (no cross-row leak)", c, out.At(0, c))
		}
		if out.At(1, c) != 1000 {
			t.Errorf("row 1 col %d = %v, want 1000", c, out.At(1, c))
		}
	}
}

func TestHorizontalBlurAverages(t *testing.T) {
	g := grid.New(5, 1)
	copy(g.Data, []float64{0, 10, 20, 30, 40})
	out := Apply(HorizontalBlur{Radius: 1}, g)
	// Interior: mean of the 3-window; ends clamp (duplicate the edge).
	if out.At(0, 2) != 20 {
		t.Errorf("center = %v, want 20", out.At(0, 2))
	}
	if got := out.At(0, 0); got != (0+0+10)/3.0 {
		t.Errorf("left edge = %v", got)
	}
}

func TestHorizontalBlurReachIndependentOfWidth(t *testing.T) {
	k := HorizontalBlur{Radius: 3}
	if got := Pattern(k).MaxAbsOffset(100000); got != 3 {
		t.Errorf("reach = %d, want 3 regardless of width", got)
	}
	if (HorizontalBlur{}).radius() != 1 {
		t.Error("zero radius must default to 1")
	}
}

func TestScatterKernelOffsetsAndClamping(t *testing.T) {
	k := ScatterKernel{Strides: []int64{2, 5}}
	offs := Pattern(k).Resolve(100)
	want := []int64{-2, 2, -5, 5}
	if len(offs) != len(want) {
		t.Fatalf("offsets %v", offs)
	}
	for i := range want {
		if offs[i] != want[i] {
			t.Fatalf("offsets %v, want %v", offs, want)
		}
	}
	// Constant field is a fixed point: 0.5·c + 0.5·c = c.
	g := grid.New(10, 1)
	for i := range g.Data {
		g.Data[i] = 4
	}
	if out := Apply(k, g); !out.Equal(g) {
		t.Error("scatter kernel not identity on constant field")
	}
}

func TestRegistryDefaults(t *testing.T) {
	r := Default()
	names := r.Names()
	want := []string{
		"flow-routing", "flow-accumulation", "gaussian-filter", "median-filter",
		"surface-slope", "diffusion",
	}
	if len(names) != len(want) {
		t.Fatalf("Names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names = %v, want %v", names, want)
		}
	}
	for _, n := range want {
		k, ok := r.Lookup(n)
		if !ok {
			t.Fatalf("Lookup(%q) failed", n)
		}
		if k.Description() == "" {
			t.Errorf("%s has no description", n)
		}
		if k.Weight() <= 0 {
			t.Errorf("%s has non-positive weight", n)
		}
	}
}

// TestRegistryPatternIsBuiltOnce: the registry's pattern for an operator
// is the one Pattern(k) builds, held from registration — asking again
// builds nothing, where Offsets makes a fresh list per call.
func TestRegistryPatternIsBuiltOnce(t *testing.T) {
	r := Default()
	for _, name := range r.Names() {
		k, _ := r.Lookup(name)
		if got, want := r.Pattern(name).String(), Pattern(k).String(); got != want {
			t.Errorf("%s: registry pattern %q, want %q", name, got, want)
		}
	}
	if n := testing.AllocsPerRun(20, func() { _ = r.Pattern("gaussian-filter") }); n != 0 {
		t.Errorf("Registry.Pattern allocates %v times per call, want 0", n)
	}
	if len(r.Pattern("no-such-op").Offsets) != 0 {
		t.Error("an unknown operator has a pattern")
	}
	r.Register(StrideKernel{OpName: "gaussian-filter", Stride: 3}) // re-registering replaces the pattern with the kernel
	if got, want := r.Pattern("gaussian-filter").String(), Pattern(StrideKernel{OpName: "gaussian-filter", Stride: 3}).String(); got != want {
		t.Errorf("re-registered pattern %q, want %q", got, want)
	}
}

func TestRegistryFeaturesDerivation(t *testing.T) {
	fr := Default().Features()
	p, ok := fr.Lookup("flow-routing")
	if !ok {
		t.Fatal("features registry missing flow-routing")
	}
	if p.MaxAbsOffset(100) != 101 {
		t.Errorf("flow-routing reach = %d, want 101", p.MaxAbsOffset(100))
	}
}

// Property: banding invariance holds for arbitrary cut positions.
func TestBandingInvarianceProperty(t *testing.T) {
	g := lcgGrid(8, 8, 99)
	k := Gaussian{}
	want := Apply(k, g)
	halo := Pattern(k).MaxAbsOffset(g.W)
	prop := func(cutRaw uint16) bool {
		cut := int64(cutRaw)%(g.Len()-1) + 1
		got := grid.New(g.W, g.H)
		for _, span := range [][2]int64{{0, cut}, {cut, g.Len()}} {
			lo, hi := grid.HaloRange(span[0], span[1], halo, g.Len())
			b := grid.BandOf(g, span[0], span[1], lo, hi)
			out := make([]float64, span[1]-span[0])
			k.ApplyBand(b, out)
			copy(got.Data[span[0]:span[1]], out)
		}
		return want.Equal(got)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
