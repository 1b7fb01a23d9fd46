package grid

import (
	"math"
	"runtime"
	"testing"

	"github.com/hpcio/das/internal/bufpool"
)

// audited runs the rest of the test under bufpool.Audit: every pool Put
// scribbles, and a pooled buffer still out when the test's deferred calls
// have run fails it.
func audited(t *testing.T) {
	done := bufpool.Audit()
	t.Cleanup(func() {
		if n := done(); n != 0 {
			t.Errorf("%d pooled buffers outstanding", n)
		}
	})
}

// TestNewBandPooledMatchesNewBand: a pooled band starts with a previous
// tenant's values, and the one fill that covers it leaves it reading
// exactly like a fresh band filled the same way.
func TestNewBandPooledMatchesNewBand(t *testing.T) {
	audited(t)
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	a := NewBand(4, 8, 2, 6, 0, 8)
	copy(a.Writable(0, 8), vals)
	stale := NewBandPooled(4, 8, 2, 6, 0, 8)
	for i, w := 0, stale.Writable(0, 8); i < len(w); i++ {
		w[i] = math.Inf(-1)
	}
	stale.Release()
	b := NewBandPooled(4, 8, 2, 6, 0, 8) // most likely on stale's buffer
	defer b.Release()
	copy(b.Writable(0, 8), vals)
	for i := int64(0); i < 8; i++ {
		if a.At(i) != b.At(i) || b.At(i) != float64(i+1) {
			t.Fatalf("pooled band [%d] = %v, fresh band %v", i, b.At(i), a.At(i))
		}
	}
	// Only memory the band owns is writable, one window of it.
	lent := NewBandLent(4, 8, 2, 6, 0, 8)
	defer lent.Release()
	lent.Lend(0, FloatsToBytes(vals))
	if panicOf(func() { lent.Writable(0, 8) }) == "" {
		t.Error("a lent window was handed out as writable")
	}
}

// TestGetFloatsHandsOutArbitraryContents pins the pool's one contract from
// the taker's side: what GetFloats returns is whatever the last holder — or
// the poison hook — left in it, not zeros, so a taker fills all of it.
func TestGetFloatsHandsOutArbitraryContents(t *testing.T) {
	audited(t)
	const n = 1 << 10
	PutFloats(make([]float64, n))
	got := GetFloats(n)
	defer PutFloats(got)
	if len(got) != n {
		t.Fatalf("GetFloats(%d) returned %d elements", n, len(got))
	}
	for i, v := range got {
		if v == 0 {
			t.Fatalf("element %d of a recycled slice is zero: GetFloats cleared it (or the pool dropped the slice)", i)
		}
	}
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
// pool is warm, building a band, lending it strips — viewed, or decoded
// where no view is to be had — stitching a row across them and releasing
// it must allocate (almost) nothing: the struct, its window list, its
// stitch rows and the decoded windows are all recycled.
func TestBandExtractionAllocs(t *testing.T) {
	const w, h = 64, 64
	raw := make([]byte, w*h*ElemSize)
	for i := range raw {
		raw[i] = byte(i * 13)
	}
	const cut = (w*h/2 + 3) * ElemSize
	odd := append(make([]byte, 1, 1+len(raw)-cut), raw[cut:]...)[1:] // unaligned: decoded
	extract := func() {
		b := NewBandLent(w, w*h, 0, w*h, 0, w*h)
		b.Lend(0, raw[:cut])
		b.Lend(cut/ElemSize, odd)
		b.Span(w*h/2, w*h/2+w)
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

// TestLendDecodesWhereItCannotView: a window lent from unaligned bytes, or
// on a host whose byte order is not the disk's, is decoded into memory the
// band owns — same values, clipping included, and the lender's buffer is
// no longer needed once Lend returns.
func TestLendDecodesWhereItCannotView(t *testing.T) {
	vals := make([]float64, 40)
	for i := range vals {
		vals[i] = float64(i) * 1.75
	}
	raw := FloatsToBytes(vals)
	a := BandOver(8, 40, 8, 32, 0, vals)
	check := func(what string, b *Band, lo, hi int64) {
		t.Helper()
		for i := lo; i < hi; i++ {
			if b.At(i) != a.At(i) {
				t.Fatalf("%s: [%d] = %v, want %v", what, i, b.At(i), a.At(i))
			}
		}
	}
	odd := append(make([]byte, 3, 3+len(raw)), raw...)[3:]
	b := NewBandLent(8, 40, 8, 32, 0, 40)
	b.Lend(0, odd)
	clear(odd) // decoded: the band does not read odd again
	check("unaligned", b, 0, 40)
	b.Release()
	onPath(true, func() {
		c := NewBandLent(8, 40, 8, 32, 8, 32)
		c.Lend(0, raw) // head and tail clipped
		check("portable path, clipped", c, 8, 32)
		if c.Contains(7) || c.Contains(32) {
			t.Error("clipped Lend kept elements outside the data range")
		}
		c.Release()
	})
	d := NewBandLent(8, 40, 8, 32, 8, 32)
	d.Lend(16, raw[16*ElemSize:]) // tail clipped at Hi
	check("tail-clipped", d, 16, 32)
	d.Release()
}
