package grid

import (
	"fmt"
	"testing"
	"testing/quick"
)

func testGrid(w, h int) *Grid {
	g := New(w, h)
	for i := range g.Data {
		g.Data[i] = float64(i)
	}
	return g
}

func TestBandOfCopiesWindow(t *testing.T) {
	g := testGrid(4, 4)
	b := BandOf(g, 4, 8, 0, 12) // own row 1, halo rows 0 and 2
	if b.OwnedLen() != 4 {
		t.Fatalf("OwnedLen = %d", b.OwnedLen())
	}
	for i := int64(0); i < 12; i++ {
		if b.At(i) != float64(i) {
			t.Errorf("At(%d) = %v", i, b.At(i))
		}
	}
}

func TestBandAtOutsidePanics(t *testing.T) {
	g := testGrid(4, 4)
	b := BandOf(g, 4, 8, 4, 8)
	defer func() {
		if recover() == nil {
			t.Error("expected panic reading outside band")
		}
	}()
	b.At(3)
}

// panicOf returns what f panics with, "" if it returns.
func panicOf(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestBandSpanChecksLikeAt: a span is the window At would read element by
// element, and a missing element panics with At's message for the first
// one missing — judged against len(Data), so the spare capacity a pooled
// band inherits is as missing as anything else.
func TestBandSpanChecksLikeAt(t *testing.T) {
	g := testGrid(4, 4)
	b := BandOf(g, 4, 8, 2, 10)
	if got := b.Span(3, 9); len(got) != 6 || cap(got) != 6 || &got[0] != &b.Data[1] {
		t.Errorf("Span(3,9): len %d cap %d, want a 6-element window of Data at 1", len(got), cap(got))
	}
	if got := b.Span(2, 10); len(got) != 8 {
		t.Errorf("Span over the whole band: len %d", len(got))
	}
	if got := b.Span(5, 5); len(got) != 0 {
		t.Errorf("empty span: len %d", len(got))
	}

	big := NewBandPooled(4, 16, 0, 16, 0, 16)
	big.Release()
	pooled := NewBandPooled(4, 16, 4, 8, 2, 10) // most likely on big's buffer
	defer pooled.Release()
	for _, band := range []*Band{b, pooled} {
		for _, c := range []struct{ lo, hi, missing int64 }{
			{1, 5, 1},    // starts below Lo
			{8, 11, 10},  // runs past Hi
			{12, 14, 12}, // wholly past Hi
		} {
			want := panicOf(func() { band.At(c.missing) })
			if got := panicOf(func() { band.Span(c.lo, c.hi) }); got == "" || got != want {
				t.Errorf("Span(%d,%d) panic %q, want At(%d)'s %q", c.lo, c.hi, got, c.missing, want)
			}
		}
	}
}

func TestBandOverValidatesWithoutCopying(t *testing.T) {
	data := []float64{10, 11, 12, 13, 14, 15}
	b := BandOver(4, 16, 5, 9, 4, data)
	if &b.Data[0] != &data[0] || b.Hi() != 10 || b.At(9) != 15 {
		t.Errorf("BandOver: Hi %d At(9) %v, want a view of data over [4,10)", b.Hi(), b.At(9))
	}
	if panicOf(func() { BandOver(4, 16, 5, 11, 4, data) }) == "" {
		t.Error("BandOver accepted an owned range past its data")
	}
}

func TestBandContains(t *testing.T) {
	g := testGrid(4, 4)
	b := BandOf(g, 4, 8, 2, 10)
	if b.Contains(1) || !b.Contains(2) || !b.Contains(9) || b.Contains(10) {
		t.Error("Contains boundaries wrong")
	}
	if b.Hi() != 10 {
		t.Errorf("Hi = %d", b.Hi())
	}
}

func TestBandFillClipsToWindow(t *testing.T) {
	b := NewBand(4, 16, 4, 8, 2, 10)
	// Fragment overlapping the front edge: only elements 2..5 land.
	b.Fill(0, []float64{100, 101, 102, 103, 104, 105})
	if b.At(2) != 102 || b.At(5) != 105 {
		t.Errorf("front overlap: At(2)=%v At(5)=%v", b.At(2), b.At(5))
	}
	// Fragment fully outside: no effect, no panic.
	b.Fill(12, []float64{1, 2, 3})
	// Fragment overlapping the back edge.
	b.Fill(8, []float64{200, 201, 202, 203})
	if b.At(8) != 200 || b.At(9) != 201 {
		t.Errorf("back overlap: At(8)=%v At(9)=%v", b.At(8), b.At(9))
	}
}

func TestBandRowCol(t *testing.T) {
	b := NewBand(5, 25, 5, 10, 5, 10)
	r, c := b.RowCol(7)
	if r != 1 || c != 2 {
		t.Errorf("RowCol(7) = (%d,%d), want (1,2)", r, c)
	}
}

func TestNewBandValidation(t *testing.T) {
	cases := []struct {
		name                      string
		start, end, lo, hi, total int64
	}{
		{"lo>start", 4, 8, 5, 8, 16},
		{"hi<end", 4, 8, 4, 7, 16},
		{"start>end", 8, 4, 0, 16, 16},
		{"negative lo", 4, 8, -1, 8, 16},
		{"hi>total", 4, 8, 4, 17, 16},
		{"ragged last row", 4, 8, 4, 8, 18},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", c.name)
				}
			}()
			NewBand(4, c.total, c.start, c.end, c.lo, c.hi)
		}()
	}
}

func TestHaloRangeClamps(t *testing.T) {
	lo, hi := HaloRange(0, 10, 5, 100)
	if lo != 0 || hi != 15 {
		t.Errorf("HaloRange front = [%d,%d)", lo, hi)
	}
	lo, hi = HaloRange(95, 100, 5, 100)
	if lo != 90 || hi != 100 {
		t.Errorf("HaloRange back = [%d,%d)", lo, hi)
	}
	lo, hi = HaloRange(40, 60, 5, 100)
	if lo != 35 || hi != 65 {
		t.Errorf("HaloRange middle = [%d,%d)", lo, hi)
	}
}

// Property: assembling a band from arbitrary fragment tilings of the
// source grid reproduces exactly the window BandOf copies.
func TestBandAssemblyProperty(t *testing.T) {
	prop := func(cuts []uint8) bool {
		g := testGrid(8, 8)
		want := BandOf(g, 16, 48, 8, 56)
		got := NewBand(8, g.Len(), 16, 48, 8, 56)
		// Build a fragment tiling of [0, 64) from the cut points.
		bounds := []int64{0}
		for _, c := range cuts {
			p := int64(c) % g.Len()
			bounds = append(bounds, p)
		}
		bounds = append(bounds, g.Len())
		// Fill fragments in the given (arbitrary) order; overlaps are fine
		// because all fragments come from the same source.
		for i := 0; i+1 < len(bounds); i++ {
			lo, hi := bounds[i], bounds[i+1]
			if lo > hi {
				lo, hi = hi, lo
			}
			got.Fill(lo, g.Data[lo:hi])
		}
		// Every byte of the window must match.
		for i := want.Lo; i < want.Hi(); i++ {
			if got.At(i) != want.At(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
