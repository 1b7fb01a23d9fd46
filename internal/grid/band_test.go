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
// one missing — judged against the window's length, so the spare capacity
// a pooled band inherits is as missing as anything else.
func TestBandSpanChecksLikeAt(t *testing.T) {
	audited(t)
	g := testGrid(4, 4)
	b := BandOf(g, 4, 8, 2, 10)
	if got := b.Span(3, 9); len(got) != 6 || cap(got) != 6 || &got[0] != &b.wins[0].vals[1] {
		t.Errorf("Span(3,9): len %d cap %d, want a 6-element window of the data at 1", len(got), cap(got))
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
	lent := NewBandLent(4, 16, 4, 8, 2, 10)
	defer lent.Release()
	lent.Lend(0, g.Bytes()[:6*ElemSize]) // clipped to [2,6)
	lent.Lend(6, g.Bytes()[6*ElemSize:]) // clipped to [6,10)
	for _, band := range []*Band{b, pooled, lent} {
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

// lendAll cuts g's bytes at the given element boundaries (ascending,
// inside (0, g.Len())) and lends every piece to a band over [lo, hi); a
// piece whose number is in unaligned is lent from a copy that starts one
// byte into its buffer, which no view can be made of.
func lendAll(g *Grid, start, end, lo, hi int64, cuts []int64, unaligned map[int]bool) *Band {
	b := NewBandLent(g.W, g.Len(), start, end, lo, hi)
	raw := g.Bytes()
	bounds := append(append([]int64{0}, cuts...), g.Len())
	for i := len(bounds) - 2; i >= 0; i-- { // descending: Lend sorts
		piece := raw[bounds[i]*ElemSize : bounds[i+1]*ElemSize]
		if unaligned[i] {
			piece = append(make([]byte, 1, 1+len(piece)), piece...)[1:]
		}
		b.Lend(bounds[i], piece)
	}
	return b
}

// TestBandSpanOverWindows: a range inside one lent window is that
// strip's own memory; a range across a boundary is stitched, and three
// stitched spans are good at once; Run stops where its window does; a
// window that could not be viewed reads the same as one that could.
func TestBandSpanOverWindows(t *testing.T) {
	g := testGrid(4, 6)
	for _, unaligned := range []map[int]bool{nil, {1: true}, {0: true, 1: true, 2: true, 3: true}} {
		b := lendAll(g, 4, 20, 0, 24, []int64{6, 7, 15}, unaligned)
		if len(b.wins) != 4 {
			t.Fatalf("%d windows, want 4", len(b.wins))
		}
		for i := int64(0); i < 24; i++ {
			if b.At(i) != float64(i) {
				t.Fatalf("At(%d) = %v", i, b.At(i))
			}
		}
		in := b.Span(8, 12)
		if &in[0] != &b.wins[2].vals[1] || cap(in) != 4 {
			t.Errorf("Span(8,12) inside one window: not a clipped view of it (cap %d)", cap(in))
		}
		up, mid, down := b.Span(3, 9), b.Span(5, 16), b.Span(14, 18)
		for _, sp := range []struct {
			lo   int64
			vals []float64
		}{{3, up}, {5, mid}, {14, down}} {
			for j, v := range sp.vals {
				if v != float64(sp.lo+int64(j)) {
					t.Errorf("stitched span from %d: [%d] = %v", sp.lo, j, v)
				}
			}
		}
		if len(up) != 6 || len(mid) != 11 || len(down) != 4 {
			t.Errorf("stitched lengths %d %d %d", len(up), len(mid), len(down))
		}
		for _, c := range []struct{ lo, hi, n int64 }{{0, 24, 6}, {6, 24, 1}, {9, 12, 3}, {14, 24, 1}, {15, 24, 9}} {
			if run := b.Run(c.lo, c.hi); int64(len(run)) != c.n || run[0] != float64(c.lo) {
				t.Errorf("Run(%d,%d): %d values from %v, want %d from %d", c.lo, c.hi, len(run), run[0], c.n, c.lo)
			}
		}
		b.Release()
	}

	// On a host where the codec is a view, an aligned lent window is the
	// lender's memory itself.
	if viewable {
		vals := []float64{1, 2, 3, 4}
		b := NewBandLent(4, 4, 0, 4, 0, 4)
		b.Lend(0, Bytes(vals))
		if got := b.Span(0, 4); &got[0] != &vals[0] {
			t.Error("aligned Lend copied")
		}
		b.Release()
	}
}

// TestBandGapIsMissing pins the rule for a strip a sparse pattern skipped:
// the gap inside [Lo, Hi) is never zero-filled — it is missing, and At,
// Span and Run panic on it exactly as on an element outside the band.
func TestBandGapIsMissing(t *testing.T) {
	g := testGrid(4, 6)
	b := NewBandLent(4, 24, 8, 12, 0, 24)
	defer b.Release()
	raw := g.Bytes()
	b.Lend(16, raw[16*ElemSize:20*ElemSize])
	b.Lend(8, raw[8*ElemSize:12*ElemSize])
	b.Lend(0, raw[:4*ElemSize])
	if b.Contains(4) || b.Contains(12) || !b.Contains(11) || !b.Contains(16) || b.Contains(20) {
		t.Error("Contains disagrees with the windows lent")
	}
	const text = "grid: element %d outside band [0,24)"
	for _, c := range []struct {
		what    string
		read    func()
		missing int64
	}{
		{"At in a gap", func() { b.At(5) }, 5},
		{"At past the last window", func() { b.At(20) }, 20},
		{"Span into a gap", func() { b.Span(10, 14) }, 12},
		{"Span out of a gap", func() { b.Span(6, 10) }, 6},
		{"Span across a gap", func() { b.Span(2, 9) }, 4},
		{"Run from a gap", func() { b.Run(12, 18) }, 12},
	} {
		if got, want := panicOf(c.read), fmt.Sprintf(text, c.missing); got != want {
			t.Errorf("%s: panic %q, want %q", c.what, got, want)
		}
	}
	if got := b.Span(8, 12); len(got) != 4 || got[0] != 8 {
		t.Errorf("a window beside a gap reads %v", got)
	}
	if panicOf(func() { b.Lend(10, raw[10*ElemSize:13*ElemSize]) }) == "" ||
		panicOf(func() { b.Lend(6, raw[6*ElemSize:9*ElemSize]) }) == "" {
		t.Error("Lend accepted a window overlapping one already lent")
	}
}

// TestBandNarrowSharesWindowsNotCursor: a narrowed band reads the same
// memory, owns the sub-range, and keeps its own cursor and stitch rows, so
// two of them can be read at once (go test -race).
func TestBandNarrowSharesWindowsNotCursor(t *testing.T) {
	g := testGrid(4, 6)
	b := lendAll(g, 4, 20, 0, 24, []int64{6, 13}, nil)
	defer b.Release()
	done := make(chan bool)
	for _, r := range [][2]int64{{4, 12}, {12, 20}} {
		sub := b.Narrow(r[0], r[1])
		go func() {
			ok := sub.Start == r[0] && sub.End == r[1] && sub.Lo == 0 && sub.Hi() == 24
			for i := sub.Start - 4; i < sub.End+4; i++ {
				ok = ok && sub.At(i) == float64(i)
			}
			row := sub.Span(sub.Start-1, sub.End+1) // straddles a window: stitched into sub's own row
			ok = ok && row[0] == float64(sub.Start-1) && int64(len(row)) == sub.OwnedLen()+2
			done <- ok
		}()
	}
	if a, b := <-done, <-done; !a || !b {
		t.Error("narrowed bands read wrong values")
	}
	if panicOf(func() { b.Narrow(0, 25) }) == "" {
		t.Error("Narrow accepted an owned range past the data")
	}
	// A narrowed band owns none of the memory: releasing it gives back
	// only itself, and the band it came from reads on.
	owner := BandOf(g, 4, 20, 0, 24)
	audited(t) // a Put of the owner's data would scribble over it
	owner.Narrow(4, 8).Release()
	for i := int64(0); i < 24; i++ {
		if owner.At(i) != float64(i) {
			t.Fatalf("after a narrowed band's Release the owner reads [%d] = %v", i, owner.At(i))
		}
	}
}

func TestBandOverValidatesWithoutCopying(t *testing.T) {
	data := []float64{10, 11, 12, 13, 14, 15}
	b := BandOver(4, 16, 5, 9, 4, data)
	if &b.Span(4, 10)[0] != &data[0] || b.Hi() != 10 || b.At(9) != 15 {
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

func TestBandLendClipsToDataRange(t *testing.T) {
	raw := FloatsToBytes([]float64{100, 101, 102, 103, 104, 105})
	b := NewBandLent(4, 16, 4, 8, 2, 10)
	defer b.Release()
	// Fragment overlapping the front edge: only elements 2..5 land.
	b.Lend(0, raw)
	if b.At(2) != 102 || b.At(5) != 105 || b.Contains(1) || b.Contains(6) {
		t.Errorf("front overlap: At(2)=%v At(5)=%v", b.At(2), b.At(5))
	}
	// Fragment fully outside: no effect, no panic.
	b.Lend(12, raw[:3*ElemSize])
	// Fragment overlapping the back edge.
	b.Lend(8, raw[:4*ElemSize])
	if b.At(8) != 100 || b.At(9) != 101 || len(b.wins) != 2 {
		t.Errorf("back overlap: At(8)=%v At(9)=%v in %d windows", b.At(8), b.At(9), len(b.wins))
	}
	if panicOf(func() { b.Lend(6, raw[:ElemSize+1]) }) == "" {
		t.Error("Lend accepted a byte length that is not whole elements")
	}

	// Values are clipped the same way, and what is left is the lender's
	// memory whatever the host: there is nothing to decode.
	vals := []float64{200, 201, 202, 203, 204, 205}
	v := NewBandLent(4, 16, 4, 8, 2, 10)
	v.LendValues(0, vals)      // only elements 2..5 land
	v.LendValues(12, vals[:3]) // fully outside
	v.LendValues(8, vals[:4])  // only elements 8, 9 land
	if got := v.Span(2, 6); &got[0] != &vals[2] || len(v.wins) != 2 || v.Contains(1) || v.Contains(6) || v.At(9) != 201 {
		t.Errorf("LendValues: Span(2,6) %v in %d windows, want a view of vals[2:6] and one more window", got, len(v.wins))
	}
	// Ground taken is taken, whichever way the next window arrives.
	refused := panicOf(func() { v.Lend(5, raw[:2*ElemSize]) })
	if got := panicOf(func() { v.LendValues(5, vals[:2]) }); refused == "" || got != refused {
		t.Errorf("window over [5,7): LendValues panics %q, Lend %q", got, refused)
	}
	// The band owns none of it: releasing it hands the pool nothing.
	audited(t)
	v.Release()
	if vals[2] != 202 || vals[0] != 200 {
		t.Errorf("Release scribbled over lent values: %v", vals)
	}
}

// TestBandWritableIsOwnMemory: the memory a band allocated is its maker's
// to fill, a lender's is nobody's to write.
func TestBandWritableIsOwnMemory(t *testing.T) {
	audited(t)
	b := NewBandPooled(4, 16, 4, 8, 2, 10)
	defer b.Release()
	for i, w := 0, b.Writable(2, 10); i < len(w); i++ {
		w[i] = float64(2 + i)
	}
	if got := b.Span(4, 8); got[0] != 4 || got[3] != 7 || cap(b.Writable(4, 6)) != 2 {
		t.Errorf("filled through Writable, Span(4,8) reads %v", got)
	}
	lent := NewBandLent(4, 16, 4, 8, 2, 10)
	defer lent.Release()
	lent.LendValues(2, make([]float64, 8))
	if panicOf(func() { lent.Writable(4, 8) }) == "" || panicOf(func() { b.Writable(4, 11) }) == "" {
		t.Error("Writable handed out memory that is not the band's own")
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
// source grid, lent in arbitrary order and each as bytes or as values,
// reads exactly like the window BandOf copies — element by element, as
// whole rows, and run by run.
func TestBandAssemblyProperty(t *testing.T) {
	prop := func(cuts []uint8, order, asValues uint64) bool {
		g := testGrid(8, 8)
		want := BandOf(g, 16, 48, 8, 56)
		got := NewBandLent(8, g.Len(), 16, 48, 8, 56)
		defer got.Release()
		// Build a fragment tiling of [0, 64) from the cut points.
		cut := map[int64]bool{0: true}
		for _, c := range cuts {
			cut[int64(c)%g.Len()] = true
		}
		var bounds []int64
		for p := int64(0); p <= g.Len(); p++ {
			if cut[p] || p == g.Len() {
				bounds = append(bounds, p)
			}
		}
		raw := g.Bytes()
		frags := make([]int, len(bounds)-1)
		for i := range frags {
			frags[i] = i
		}
		for n := len(frags); n > 0; n-- { // lend them in an order the input picks
			pick := int(order % uint64(n))
			order /= 7
			i := frags[pick]
			frags[pick] = frags[n-1]
			if asValues>>(i%64)&1 != 0 {
				got.LendValues(bounds[i], g.Data[bounds[i]:bounds[i+1]])
			} else {
				got.Lend(bounds[i], raw[bounds[i]*ElemSize:bounds[i+1]*ElemSize])
			}
		}
		for i := want.Lo; i < want.Hi(); i++ {
			if got.At(i) != want.At(i) {
				return false
			}
		}
		for row := want.Lo; row < want.Hi(); row += 8 {
			for j, v := range got.Span(row, row+8) {
				if v != want.At(row+int64(j)) {
					return false
				}
			}
		}
		for i := want.Lo; i < want.Hi(); {
			run := got.Run(i, want.Hi())
			for j, v := range run {
				if v != want.At(i+int64(j)) {
					return false
				}
			}
			i += int64(len(run))
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
