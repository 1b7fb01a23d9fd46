package grid

import (
	"bytes"
	"math"
	"testing"
)

// onPath runs fn on the codec's view path (the host's own, if it has one)
// or with the codec forced onto its per-element path, the one a
// big-endian host takes.
func onPath(portable bool, fn func()) {
	was := viewable
	viewable = was && !portable
	defer func() { viewable = was }()
	fn()
}

// TestCodecPathsAgree holds the view/memmove path to the portable
// per-element path bit for bit, on the values where a conversion (as
// opposed to a copy) could differ: NaN payloads and signs, signed zeros,
// infinities, subnormals.
func TestCodecPathsAgree(t *testing.T) {
	bits := []uint64{
		0x0000000000000000, 0x8000000000000000, // ±0
		0x7ff0000000000000, 0xfff0000000000000, // ±Inf
		0x7ff8000000000000, 0xfff8000000000001, // quiet NaNs, either sign
		0x7ff0000000000001, 0x7ff4dead0000beef, // signalling NaNs with payloads
		0x0000000000000001, 0x800fffffffffffff, // smallest and largest subnormal
		0x0010000000000000, 0x7fefffffffffffff, // smallest normal, largest finite
		0x3ff0000000000000, 0x0123456789abcdef,
	}
	vals := make([]float64, len(bits))
	for i, b := range bits {
		vals[i] = math.Float64frombits(b)
	}
	if !viewable {
		t.Log("big-endian host: both sides of the comparison take the portable path")
	}

	fast := FloatsToBytes(vals)
	var slow []byte
	onPath(true, func() { slow = FloatsToBytes(vals) })
	if !bytes.Equal(fast, slow) {
		t.Fatalf("encode paths differ:\n view     % x\n portable % x", fast, slow)
	}
	if view := Bytes(vals); !bytes.Equal(view, slow) {
		t.Fatalf("Bytes differs from the portable encoding:\n view     % x\n portable % x", view, slow)
	}
	onPath(true, func() {
		if cp := Bytes(vals); !bytes.Equal(cp, slow) {
			t.Fatalf("portable Bytes differs from the portable encoding")
		}
	})

	back := FloatsFromBytes(slow)
	var backSlow []float64
	onPath(true, func() { backSlow = FloatsFromBytes(slow) })
	for i, want := range bits {
		if got := math.Float64bits(back[i]); got != want {
			t.Errorf("view decode [%d] = %#016x, want %#016x", i, got, want)
		}
		if got := math.Float64bits(backSlow[i]); got != want {
			t.Errorf("portable decode [%d] = %#016x, want %#016x", i, got, want)
		}
	}

	// The band entry point sits on the same functions: Lend views or
	// decodes.
	for _, portable := range []bool{false, true} {
		onPath(portable, func() {
			n := int64(len(vals))
			a := NewBandLent(len(vals), n, 0, n, 0, n)
			defer a.Release()
			a.Lend(0, slow)
			for i, want := range bits {
				if got := math.Float64bits(a.At(int64(i))); got != want {
					t.Errorf("Lend (portable=%v) [%d] = %#016x, want %#016x", portable, i, got, want)
				}
			}
		})
	}
}
