package kernels

import (
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/hpcio/das/internal/bufpool"
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/workload"
)

// rowDriverKernels is every kernel whose ApplyBand streams rows or spans:
// the default registry plus the ablation kernels, the latter with reaches
// on both sides of the oracle rasters' sizes.
func rowDriverKernels() []Kernel {
	reg := Default()
	var ks []Kernel
	for _, name := range reg.Names() {
		k, _ := reg.Lookup(name)
		ks = append(ks, k)
	}
	return append(ks,
		HorizontalBlur{Radius: 1}, HorizontalBlur{Radius: 3},
		StrideKernel{Stride: 5}, StrideKernel{Stride: -2},
		ScatterKernel{Strides: []int64{1, 7, 3}})
}

// adversarialCells are the values whose bits depend on more than their
// order, and the ones an integer order key gets wrong if it is built wrong:
// the two zeros compare equal, NaN — with the sign bit set or a payload as
// well — compares false with everything, the smallest and largest finite
// magnitudes sit next to the zeros and the infinities in key order, ±5.7
// truncate to a direction code or its negative and ±8 are one.
var adversarialCells = []float64{
	0, math.Copysign(0, -1),
	math.NaN(), math.Float64frombits(0xFFF8000000000001), math.Float64frombits(0x7FF8DEADBEEF0001),
	math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
	5.7, 8, -5.7, -8,
}

// Cell populations of an oracle raster.
const (
	cellsNormal = iota
	cellsSmallInt
	cellsAdversarial
	cellsMixed
	cellKinds
)

// oracleGrid fills a w×h raster from one of the cell populations.
func oracleGrid(w, h, kind int, rng *workload.RNG) *grid.Grid {
	g := grid.New(w, h)
	for i := range g.Data {
		k := kind
		if k == cellsMixed {
			k = int(rng.Intn(cellsMixed))
		}
		switch k {
		case cellsNormal: // Box–Muller
			g.Data[i] = math.Sqrt(-2*math.Log(1-rng.Float())) * math.Cos(2*math.Pi*rng.Float())
		case cellsSmallInt:
			g.Data[i] = float64(rng.Intn(10))
		default:
			g.Data[i] = adversarialCells[rng.Intn(int64(len(adversarialCells)))]
		}
	}
	return g
}

// haloBand builds the band a scheme would: owned [start, end) plus exactly
// the pattern's MaxAbsOffset each way — for Diffusion that is ±W, without
// the corners an 8-neighbor band has.
func haloBand(k Kernel, g *grid.Grid, start, end int64) *grid.Band {
	lo, hi := grid.HaloRange(start, end, Pattern(k).MaxAbsOffset(g.W), g.Len())
	return grid.BandOf(g, start, end, lo, hi)
}

// Bits of a cuts byte: where the window starts, and how it is lent.
const (
	cutAt        = 0x3f // offset into the data range, modulo its length
	cutValues    = 0x40 // lent as values (LendValues), not bytes (Lend)
	cutUnaligned = 0x80 // bytes lent from a copy that starts one byte into its buffer
)

// lentBand builds the band an offloading server or a pipeline round would:
// haloBand's ranges, assembled from windows. g's values over the data
// range [lo, hi) are cut at lo + (c&cutAt)%(hi-lo) for every c in cuts and
// lent piece by piece, each as its cut says (the first, unless a cut falls
// on lo, as aligned bytes): as values, as bytes the band can view, or as
// bytes of which no view can be made, which it decodes.
func lentBand(g *grid.Grid, start, end, lo, hi int64, cuts []byte) *grid.Band {
	how := map[int64]byte{}
	bounds := []int64{lo}
	for _, c := range cuts {
		at := lo + int64(c&cutAt)%(hi-lo)
		how[at] |= c
		bounds = append(bounds, at)
	}
	slices.Sort(bounds)
	bounds = append(slices.Compact(bounds), hi)
	b := grid.NewBandLent(g.W, g.Len(), start, end, lo, hi)
	for i, from := range bounds[:len(bounds)-1] {
		vals := g.Data[from:bounds[i+1]]
		raw := grid.Bytes(vals)
		switch {
		case how[from]&cutValues != 0:
			b.LendValues(from, vals)
		case how[from]&cutUnaligned != 0:
			b.Lend(from, append(make([]byte, 1, 1+len(raw)), raw...)[1:])
		default:
			b.Lend(from, raw)
		}
	}
	return b
}

// everyElement cuts the first 64 elements of a band into one-element
// windows, lent by turns as bytes and as values.
var everyElement = func() []byte {
	cuts := make([]byte, cutAt+1)
	for i := range cuts {
		cuts[i] = byte(i) | byte(i&1)*cutValues
	}
	return cuts
}()

// unwritten prefills outputs, so a cell a path skips shows as a mismatch.
const unwritten = 12345.678

func applyInto(apply func(b *grid.Band, out []float64), b *grid.Band) []float64 {
	out := make([]float64, b.OwnedLen())
	for i := range out {
		out[i] = unwritten
	}
	apply(b, out)
	return out
}

// selects reports the kernels whose every output is an input cell or a
// small constant, so that even a NaN's bits are theirs to define. The
// others add and multiply, and when two NaNs meet in an addition (an input
// NaN and the default NaN of +Inf + −Inf, say) the payload that survives is
// the instruction's first operand — an order Go leaves to the compiler, on
// either path. For those a NaN matches any NaN.
func selects(k Kernel) bool {
	switch k.(type) {
	case Median, FlowRouting, FlowAccumulation:
		return true
	}
	return false
}

func sameBits(t *testing.T, what string, b *grid.Band, got, want []float64, anyNaN bool) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			if anyNaN && math.IsNaN(got[i]) && math.IsNaN(want[i]) {
				continue
			}
			r, c := b.RowCol(b.Start + int64(i))
			t.Fatalf("%s: %d×%d raster, owned [%d,%d): cell (%d,%d) = %v (%#x), per-element %v (%#x)",
				what, b.Width, b.GlobalLen/int64(b.Width), b.Start, b.End, r, c,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// checkRowDriver compares k's ApplyBand, alone and through the parallel
// executor at 1, 2 and 7 shards, with k's per-element path on the owned
// range [start, end) of g, and the two reducers' runs with an At loop —
// each on the one-window band BandOf copies and on the same ranges lent
// as windows cut at cuts (lentBand), bytes and values alike, where the
// per-element path itself is first held to what it computes on one window.
// Ground a window covers is taken, whichever way the next one arrives.
func checkRowDriver(t *testing.T, k Kernel, g *grid.Grid, start, end int64, cuts []byte) {
	t.Helper()
	whole := haloBand(k, g, start, end)
	lent := lentBand(g, start, end, whole.Lo, whole.Hi(), cuts)
	defer lent.Release()
	for _, i := range []int64{whole.Lo, whole.Hi() - 1} { // in the first window, and in the last
		again := g.Data[i : i+1]
		refused := panicMessage(func() { lent.Lend(i, grid.Bytes(again)) })
		if got := panicMessage(func() { lent.LendValues(i, again) }); !strings.Contains(refused, "overlaps") || got != refused {
			t.Fatalf("element %d lent twice: LendValues panics %q, Lend %q", i, got, refused)
		}
	}
	want := applyInto(PerElement(k).ApplyBand, whole)
	sameBits(t, k.Name()+" per element over windows", lent, applyInto(PerElement(k).ApplyBand, lent), want, !selects(k))
	sameBits(t, k.Name(), whole, applyInto(k.ApplyBand, whole), want, !selects(k))
	sameBits(t, k.Name()+" over windows", lent, applyInto(k.ApplyBand, lent), want, !selects(k))

	hist := Histogram{Bins: 4, Lo: -1, Hi: 7}
	wantStats := []float64{0, 0, 0, math.Inf(1), math.Inf(-1)}
	wantHist := make([]float64, hist.Bins)
	for _, v := range g.Data[start:end] {
		wantStats[StatCount]++
		wantStats[StatSum] += v
		wantStats[StatSumSq] += v * v
		wantStats[StatMin] = math.Min(wantStats[StatMin], v)
		wantStats[StatMax] = math.Max(wantStats[StatMax], v)
		wantHist[hist.bucket(v)]++
	}
	lentOwned := lentBand(g, start, end, start, end, cuts)
	defer lentOwned.Release()
	for _, owned := range []*grid.Band{grid.BandOf(g, start, end, start, end), lentOwned} {
		// Count, minimum and maximum select; the two sums add (see selects).
		gotStats := Stats{}.ReduceBand(owned)
		sameBits(t, "stats count", owned, gotStats[:StatSum], wantStats[:StatSum], false)
		sameBits(t, "stats sums", owned, gotStats[StatSum:StatMin], wantStats[StatSum:StatMin], true)
		sameBits(t, "stats extremes", owned, gotStats[StatMin:], wantStats[StatMin:], false)
		sameBits(t, "histogram", owned, hist.ReduceBand(owned), wantHist, false)
	}
}

// TestRowDriverMatchesPerElement: on small rasters of every shape class —
// narrower than a window, single row, owned ranges that start and end
// mid-row — cut into windows anywhere, down to one element each, and on
// cells chosen to expose sort order and truncation, the row-streaming
// kernels reproduce the per-element path bit for bit.
func TestRowDriverMatchesPerElement(t *testing.T) {
	for _, k := range rowDriverKernels() {
		k := k
		t.Run(k.Name(), func(t *testing.T) {
			rng := workload.NewRNG(uint64(len(k.Name())))
			for n := 0; n < 400; n++ {
				g := oracleGrid(1+int(rng.Intn(12)), 1+int(rng.Intn(9)), n%cellKinds, rng)
				start := rng.Intn(g.Len())
				end := start + 1 + rng.Intn(g.Len()-start)
				cuts := make([]byte, rng.Intn(9))
				for i := range cuts {
					cuts[i] = byte(rng.Intn(256))
				}
				if n%40 == 39 {
					cuts = everyElement
				}
				checkRowDriver(t, k, g, start, end, cuts)
			}
		})
	}
}

// FuzzRowDriver is the same comparison with the fuzzer choosing kernel,
// shape, owned range, cell population, where the windows are cut and what
// each is lent as. Its seed corpus (testdata/fuzz/FuzzRowDriver, one file
// per shape class and, as windows-*, per way a boundary can fall and a
// window can arrive) runs as a unit test in tier-1; `make extended` fuzzes
// for a bounded time.
func FuzzRowDriver(f *testing.F) {
	f.Add(uint8(0), uint8(7), uint8(5), uint8(cellsMixed), uint16(9), uint16(20), uint64(1), []byte{12, cutUnaligned | 30, cutValues | 41})
	ks := rowDriverKernels()
	f.Fuzz(func(t *testing.T, kernel, width, height, cells uint8, start, end uint16, seed uint64, cuts []byte) {
		g := oracleGrid(1+int(width%12), 1+int(height%9), int(cells%cellKinds), workload.NewRNG(seed))
		s := int64(start) % g.Len()
		e := s + 1 + int64(end)%(g.Len()-s)
		checkRowDriver(t, ks[int(kernel)%len(ks)], g, s, e, cuts)
	})
}

func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg, _ = r.(string)
		}
	}()
	f()
	return ""
}

// TestRowDriverMissingHaloPanics: a band one element short of an up or
// down row must panic on the row path exactly as At does on the
// per-element path — also when the band came from the pool with spare
// capacity behind its window, or was lent a strip that goes on past the
// data range, where an unchecked window would read values that are not the
// band's instead.
func TestRowDriverMissingHaloPanics(t *testing.T) {
	done := bufpool.Audit() // a pooled band's stale values are poison, and every band goes back
	defer func() {
		if n := done(); n != 0 {
			t.Errorf("%d pooled buffers outstanding", n)
		}
	}()
	const w, h = 8, 6
	g := lcgGrid(w, h, 7)
	// Owned cells (2,2)..(3,5): the first reads up-left 9, the last
	// down-right 38.
	const start, end = 2*w + 2, 3*w + 6
	builders := []struct {
		name  string
		build func(lo, hi int64) *grid.Band
	}{
		{"NewBand", func(lo, hi int64) *grid.Band { return grid.BandOf(g, start, end, lo, hi) }},
		{"NewBandPooled", func(lo, hi int64) *grid.Band {
			stale := make([]float64, g.Len())
			for i := range stale {
				stale[i] = 1e9 // values the short band must never see
			}
			big := grid.NewBandPooled(w, g.Len(), 0, g.Len(), 0, g.Len())
			copy(big.Writable(0, g.Len()), stale)
			big.Release()
			b := grid.NewBandPooled(w, g.Len(), start, end, lo, hi)
			copy(b.Writable(lo, hi), g.Data[lo:hi])
			return b
		}},
		{"NewBandLent", func(lo, hi int64) *grid.Band {
			b := grid.NewBandLent(w, g.Len(), start, end, lo, hi)
			b.Lend(0, grid.Bytes(g.Data[:3*w-3]))     // two strips of the whole raster, cut mid-row:
			b.Lend(3*w-3, grid.Bytes(g.Data[3*w-3:])) // Lend clips them to [lo, hi)
			return b
		}},
	}
	for _, bld := range builders {
		name, build := bld.name, bld.build
		for _, k := range rowDriverKernels()[:6] { // the 3×3 family
			halo := Pattern(k).MaxAbsOffset(w)
			lo, hi := grid.HaloRange(start, end, halo, g.Len())
			for _, short := range []struct {
				what   string
				lo, hi int64
			}{{"up row", lo + 1, hi}, {"down row", lo, hi - 1}} {
				b := build(short.lo, short.hi)
				out := make([]float64, b.OwnedLen())
				want := panicMessage(func() { PerElement(k).ApplyBand(b, out) })
				got := panicMessage(func() { k.ApplyBand(b, out) })
				if !strings.Contains(want, "outside band") {
					t.Fatalf("%s/%s: per-element path did not miss the %s: %q", name, k.Name(), short.what, want)
				}
				if got != want {
					t.Errorf("%s/%s short of the %s: row path panic %q, per-element %q", name, k.Name(), short.what, got, want)
				}
				b.Release()
			}
		}
	}
}

// TestApplyBandDoesNotAllocate: the driver hands out windows of the
// band, never copies, and calls its kernel through an interface that
// boxes nothing.
func TestApplyBandDoesNotAllocate(t *testing.T) {
	g := lcgGrid(64, 16, 3)
	for _, k := range rowDriverKernels() {
		b := haloBand(k, g, 70, g.Len()-70)
		out := make([]float64, b.OwnedLen())
		if n := testing.AllocsPerRun(20, func() { k.ApplyBand(b, out) }); n != 0 {
			t.Errorf("%s: ApplyBand allocates %v times per call, want 0", k.Name(), n)
		}
	}
}
