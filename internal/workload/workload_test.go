package workload

import (
	"math"
	"testing"

	"github.com/hpcio/das/internal/grid"
)

// terrainReference is Terrain's definition, pixel by pixel: every octave's
// lattice sampled at (c/cell, r/cell) with bilinear interpolation of
// smoothstepped fractions. Terrain tabulates what depends on one
// coordinate only and must produce these bits.
func terrainReference(w, h int, seed uint64) *grid.Grid {
	g := grid.New(w, h)
	octaves := []struct{ cell, amp float64 }{{64, 100}, {16, 25}, {4, 6}}
	lattices := make([]*lattice, len(octaves))
	for i, o := range octaves {
		lattices[i] = newLattice(int(float64(w)/o.cell)+2, int(float64(h)/o.cell)+2, seed+uint64(i)*7919)
	}
	for r := 0; r < h; r++ {
		for c := 0; c < w; c++ {
			v := 0.05 * float64(r+c)
			for i, o := range octaves {
				v += o.amp * lattices[i].sample(float64(c)/o.cell, float64(r)/o.cell)
			}
			g.Set(r, c, v)
		}
	}
	return g
}

func (l *lattice) at(x, y int) float64 {
	if x >= l.w {
		x = l.w - 1
	}
	if y >= l.h {
		y = l.h - 1
	}
	return l.v[y*l.w+x]
}

func (l *lattice) sample(x, y float64) float64 {
	x0, y0 := int(x), int(y)
	fx, fy := x-float64(x0), y-float64(y0)
	fx = fx * fx * (3 - 2*fx)
	fy = fy * fy * (3 - 2*fy)
	top := l.at(x0, y0)*(1-fx) + l.at(x0+1, y0)*fx
	bot := l.at(x0, y0+1)*(1-fx) + l.at(x0+1, y0+1)*fx
	return top*(1-fy) + bot*fy
}

// imageReference is Image's definition with the field evaluated per pixel.
func imageReference(w, h int, seed uint64, speckleFrac float64) *grid.Grid {
	g := grid.New(w, h)
	r := NewRNG(seed)
	for row := 0; row < h; row++ {
		for col := 0; col < w; col++ {
			v := 128 + 80*math.Sin(float64(col)/23)*math.Cos(float64(row)/17)
			if r.Float() < speckleFrac {
				if r.Float() < 0.5 {
					v = 0
				} else {
					v = 255
				}
			}
			g.Set(row, col, v)
		}
	}
	return g
}

// speckleFracs are the speckle fractions the generator checks run at: the
// bench's, the ends of [0, 1] and past them, NaN, one whose threshold
// rounds up from below a single draw, and one that is no multiple of 2⁻⁵³.
var speckleFracs = []float64{0, 0.02, 0.5, 1, 1.5, -0.1, math.NaN(), 0x1p-60, 0.1234567}

// TestGeneratorsMatchPerPixelDefinition: hoisting the row- and column-
// invariants out of the pixel loops moved no bit, on sizes that are not
// multiples of any octave cell and that make the lattice clamp.
func TestGeneratorsMatchPerPixelDefinition(t *testing.T) {
	sizes := [][2]int{{1, 1}, {3, 7}, {65, 33}, {127, 129}, {256, 64}, {301, 203}, {4100, 130}}
	for _, sz := range sizes {
		w, h := sz[0], sz[1]
		for _, seed := range []uint64{0, 5, 42, 1 << 40} {
			if got, want := Terrain(w, h, seed), terrainReference(w, h, seed); !bitEqual(got, want) {
				t.Errorf("Terrain(%d, %d, %d) differs from its per-pixel definition", w, h, seed)
			}
			for _, frac := range speckleFracs {
				if got, want := Image(w, h, seed, frac), imageReference(w, h, seed, frac); !bitEqual(got, want) {
					t.Errorf("Image(%d, %d, %d, %g) differs from its per-pixel definition", w, h, seed, frac)
				}
			}
		}
	}
}

// FuzzGenerators holds Terrain and Image to their per-pixel definitions,
// bit for bit, at any size up to 600×300, any seed and any speckle
// fraction, NaN and those outside [0, 1] included.
func FuzzGenerators(f *testing.F) {
	f.Add(uint16(0), uint16(0), uint64(0), 0.0)
	f.Add(uint16(64), uint16(32), uint64(42), 13.0/255)
	f.Add(uint16(599), uint16(299), uint64(1<<40), 1.0)
	f.Add(uint16(300), uint16(128), uint64(7), 128.0/255)
	for i, frac := range speckleFracs {
		f.Add(uint16(37*i), uint16(11*i), uint64(i), frac)
	}
	f.Fuzz(func(t *testing.T, w, h uint16, seed uint64, frac float64) {
		wi, hi := int(w)%600+1, int(h)%300+1
		if got, want := Terrain(wi, hi, seed), terrainReference(wi, hi, seed); !bitEqual(got, want) {
			t.Errorf("Terrain(%d, %d, %d) differs from its per-pixel definition", wi, hi, seed)
		}
		if got, want := Image(wi, hi, seed, frac), imageReference(wi, hi, seed, frac); !bitEqual(got, want) {
			t.Errorf("Image(%d, %d, %d, %g) differs from its per-pixel definition", wi, hi, seed, frac)
		}
	})
}

func bitEqual(a, b *grid.Grid) bool {
	if a.W != b.W || a.H != b.H {
		return false
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

func TestTerrainDeterministic(t *testing.T) {
	a := Terrain(64, 48, 7)
	b := Terrain(64, 48, 7)
	if !a.Equal(b) {
		t.Error("same seed produced different terrain")
	}
	c := Terrain(64, 48, 8)
	if a.Equal(c) {
		t.Error("different seeds produced identical terrain")
	}
}

func TestTerrainIsFiniteAndVaried(t *testing.T) {
	g := Terrain(128, 96, 42)
	seen := make(map[float64]bool)
	for _, v := range g.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("terrain contains non-finite values")
		}
		seen[v] = true
	}
	if len(seen) < len(g.Data)/10 {
		t.Errorf("terrain too repetitive: %d distinct values of %d", len(seen), len(g.Data))
	}
}

func TestTerrainHasRegionalSlope(t *testing.T) {
	g := Terrain(256, 256, 3)
	// Averaged over many cells the 0.05·(r+c) slope dominates noise:
	// the far corner sits higher than the origin corner.
	var nearSum, farSum float64
	for i := 0; i < 32; i++ {
		for j := 0; j < 32; j++ {
			nearSum += g.At(i, j)
			farSum += g.At(255-i, 255-j)
		}
	}
	if farSum <= nearSum {
		t.Error("terrain lacks the draining slope")
	}
}

func TestImageSpeckleFraction(t *testing.T) {
	g := Image(256, 256, 9, 0.1)
	speckles := 0
	for _, v := range g.Data {
		if v == 0 || v == 255 {
			speckles++
		}
	}
	frac := float64(speckles) / float64(g.Len())
	if frac < 0.05 || frac > 0.15 {
		t.Errorf("speckle fraction %v, want ≈0.1", frac)
	}
}

func TestImageNoSpeckleIsSmooth(t *testing.T) {
	g := Image(64, 64, 1, 0)
	for r := 0; r < 64; r++ {
		for c := 1; c < 64; c++ {
			if math.Abs(g.At(r, c)-g.At(r, c-1)) > 20 {
				t.Fatalf("clean image jumps at (%d,%d)", r, c)
			}
		}
	}
}

func TestRamp(t *testing.T) {
	g := Ramp(4, 2)
	if g.At(0, 0) != 0 || g.At(1, 3) != 7 {
		t.Error("ramp values wrong")
	}
}

func TestRNGUniformity(t *testing.T) {
	r := NewRNG(123)
	var sum float64
	const n = 10000
	for i := 0; i < n; i++ {
		v := r.Float()
		if v < 0 || v >= 1 {
			t.Fatalf("float out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / n; mean < 0.47 || mean > 0.53 {
		t.Errorf("mean %v, want ≈0.5", mean)
	}
}
