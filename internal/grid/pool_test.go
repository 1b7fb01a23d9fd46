package grid

import (
	"math"
	"runtime"
	"testing"
)

func TestNewBandPooledMatchesNewBand(t *testing.T) {
	raw := FloatsToBytes([]float64{1, 2, 3, 4, 5, 6, 7, 8})
	a := NewBand(4, 8, 2, 6, 0, 8)
	a.Fill(0, FloatsFromBytes(raw))
	b := NewBandPooled(4, 8, 2, 6, 0, 8)
	b.FillBytes(0, raw)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("pooled band data[%d] = %v, want %v", i, b.Data[i], a.Data[i])
		}
	}
	b.Release()
	// A recycled band holds the previous tenant's values until it is
	// assembled; ZeroUnfilled leaves 0 exactly where no fill landed, be
	// the gap at the head, in the middle or at the tail.
	c := NewBandPooled(4, 8, 2, 6, 0, 8)
	c.FillBytes(5, raw[5*ElemSize:6*ElemSize])
	c.Fill(2, []float64{3})
	c.ZeroUnfilled()
	for i, want := range []float64{0, 0, 3, 0, 0, 6, 0, 0} {
		if c.Data[i] != want {
			t.Fatalf("recycled band data[%d] = %v, want %v", i, c.Data[i], want)
		}
	}
	c.Release()
	d := NewBandPooled(4, 8, 2, 6, 0, 8)
	d.ZeroUnfilled()
	for i, v := range d.Data {
		if v != 0 {
			t.Fatalf("unfilled recycled band data[%d] = %v, want 0", i, v)
		}
	}
	d.Release()
}

// TestBandDataSurvivesGC pins Release's contract: the data buffer goes
// back to the float pool, not into the sync.Pool that holds the Band
// structs and that every GC cycle empties. When it rode along with the
// struct, a steady acquire/release loop reallocated its band data after
// each collection.
func TestBandDataSurvivesGC(t *testing.T) {
	const n = 1 << 16
	cycle := func() {
		b := NewBandPooled(n, n, 0, n, 0, n)
		b.Release()
		runtime.GC()
		runtime.GC() // sync.Pool's victim cache lasts one more cycle
	}
	cycle() // warm the pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 8; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= n*ElemSize {
		t.Errorf("8 acquire/release cycles across GCs allocated %d bytes: band data (%d bytes) was reallocated", got, n*ElemSize)
	}
}

func TestNewBandPooledValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for invalid band geometry")
		}
	}()
	NewBandPooled(4, 8, 2, 6, 3, 8) // lo > start
}

// TestBandExtractionAllocs guards the band-assembly hot path: once the
// pool is warm, building a band, decoding strip bytes into it, and
// releasing it must allocate (almost) nothing. The pre-pool path cost at
// least two allocations per band (Data slice + decoded []float64), both
// proportional to the halo size.
func TestBandExtractionAllocs(t *testing.T) {
	const w, h = 64, 64
	raw := make([]byte, w*h*ElemSize)
	for i := range raw {
		raw[i] = byte(i * 13)
	}
	extract := func() {
		b := NewBandPooled(w, w*h, 0, w*h, 0, w*h)
		b.FillBytes(0, raw)
		b.Release()
	}
	extract() // warm the pool
	allocs := testing.AllocsPerRun(100, extract)
	// sync.Pool may shed a Band struct across a GC mid-run; tolerate a
	// stray refill but reject anything resembling per-call allocation.
	if allocs > 2 {
		t.Errorf("band extraction: %.1f allocs/op, want ≤ 2", allocs)
	}
}

func TestFloatsToBytesIntoReusesBuffer(t *testing.T) {
	vals := []float64{1.5, -2.25, math.Pi}
	buf := make([]byte, len(vals)*ElemSize)
	out := FloatsToBytesInto(buf, vals)
	if &out[0] != &buf[0] {
		t.Error("FloatsToBytesInto did not reuse the provided buffer")
	}
	back, err := FloatsFromBytesInto(nil, out)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if math.Float64bits(back[i]) != math.Float64bits(vals[i]) {
			t.Fatalf("round trip lost vals[%d]", i)
		}
	}
}

func TestFloatsFromBytesIntoUnalignedErrors(t *testing.T) {
	if _, err := FloatsFromBytesInto(nil, make([]byte, 9)); err == nil {
		t.Error("expected error for 9-byte input (not a multiple of ElemSize)")
	}
}

func TestFillBytesMatchesFill(t *testing.T) {
	vals := make([]float64, 40)
	for i := range vals {
		vals[i] = float64(i) * 1.75
	}
	raw := FloatsToBytes(vals)
	a := NewBand(8, 40, 8, 32, 0, 40)
	a.Fill(0, vals)
	b := NewBand(8, 40, 8, 32, 0, 40)
	b.FillBytes(0, raw)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("FillBytes data[%d] = %v, want %v", i, b.Data[i], a.Data[i])
		}
	}
	// Partial overlap: source range hangs off both ends of the window.
	c := NewBand(8, 40, 8, 32, 8, 32)
	c.FillBytes(0, raw) // head clipped
	if c.At(8) != vals[8] || c.At(31) != vals[31] {
		t.Error("clipped FillBytes wrote wrong values")
	}
	d := NewBand(8, 40, 8, 32, 8, 32)
	d.FillBytes(16, raw[:24*ElemSize]) // tail clipped at Hi
	if d.At(16) != vals[0] || d.At(31) != vals[15] {
		t.Error("tail-clipped FillBytes wrote wrong values")
	}
}
