package kernels

import (
	"math"
	"testing"
)

// FuzzOrderKey holds the two keys to what orderkey.go says of them, for
// any two bit patterns: orderKey agrees with `<` on every non-NaN pair and
// breaks its one tie as documented (−0 below +0), round-trips to the same
// bits, and puts every NaN outside [keyNegInf, keyPosInf]; routeKey agrees
// with `<` on every non-NaN pair, gives the zeros one key, and puts every
// NaN above routeKeyInf. The seed corpus runs in tier-1; `make extended`
// fuzzes for a bounded time.
func FuzzOrderKey(f *testing.F) {
	bits := []uint64{
		0, 1 << 63, // ±0
		1, 1<<63 | 1, // ±SmallestNonzeroFloat64
		0x000FFFFFFFFFFFFF, 0x0010000000000000, // largest subnormal, smallest normal
		0x3FF0000000000000, 0xBFF0000000000000, // ±1
		0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF, // ±MaxFloat64
		0x7FF0000000000000, 0xFFF0000000000000, // ±Inf
		0x7FF0000000000001, 0xFFF0000000000001, // the NaNs next to them
		0x7FF8000000000001, 0xFFF8000000000001, // quiet NaNs of either sign
		0x7FFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF, // the NaNs farthest out
	}
	for i, a := range bits {
		f.Add(a, bits[(i+1)%len(bits)])
		f.Add(a, a)
	}
	f.Fuzz(func(t *testing.T, abits, bbits uint64) {
		a, b := math.Float64frombits(abits), math.Float64frombits(bbits)
		ka, kb := orderKey(a), orderKey(b)
		ra, rb := routeKey(a), routeKey(b)
		if got := math.Float64bits(keyFloat(ka)); got != abits {
			t.Fatalf("keyFloat(orderKey(%#x)) = %#x", abits, got)
		}
		if inside := keyNegInf <= ka && ka <= keyPosInf; inside == math.IsNaN(a) {
			t.Fatalf("orderKey(%#x) = %#x: inside the infinities' keys %v, NaN %v", abits, ka, inside, math.IsNaN(a))
		}
		if above := ra > routeKeyInf; above != math.IsNaN(a) {
			t.Fatalf("routeKey(%#x) = %#x: above +Inf's key %v, NaN %v", abits, ra, above, math.IsNaN(a))
		}
		if math.IsNaN(a) || math.IsNaN(b) {
			return
		}
		// −0 < +0 is the one order the key adds to `<`.
		less := a < b || (a == 0 && b == 0 && math.Signbit(a) && !math.Signbit(b))
		if (ka < kb) != less {
			t.Fatalf("orderKey: %v (%#x) < %v (%#x) is %v, keys %#x < %#x is %v", a, abits, b, bbits, less, ka, kb, ka < kb)
		}
		if (ra < rb) != (a < b) || (ra == rb) != (a == b) {
			t.Fatalf("routeKey: %v (%#x) vs %v (%#x): keys %#x, %#x", a, abits, b, bbits, ra, rb)
		}
	})
}
