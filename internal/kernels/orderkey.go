package kernels

import "math"

// orderKey maps a float64 to an integer that sorts as the float does, so
// that the selecting kernels can pick by integer compare — which compiles
// to CMP/CMOV — where a float compare branches on the data. A float64 is
// sign-magnitude; the key is the same bits as two's complement, the
// magnitude of a negative value inverted. For any two non-NaN values
// a < b implies orderKey(a) < orderKey(b), and the key order breaks `<`'s
// one tie: −0 (key −1) sorts directly below +0 (key 0). A NaN's key lies
// outside [keyNegInf, keyPosInf] — below with the sign bit set, above
// without — so the smallest and the largest key of a window tell whether
// it holds one.
func orderKey(v float64) int64 {
	return invertNegative(int64(math.Float64bits(v)))
}

// keyFloat returns the value whose orderKey is k, bit for bit.
func keyFloat(k int64) float64 {
	return math.Float64frombits(uint64(invertNegative(k)))
}

// invertNegative inverts the low 63 bits of a negative b; it is its own
// inverse.
func invertNegative(b int64) int64 {
	return b ^ int64(uint64(b>>63)>>1)
}

// routeKey is the key flow-routing selects on: orderKey, unsigned, with two
// changes that make its order exactly `<` on non-NaN values. It keys v+0,
// and −0 + 0 is +0, so the zeros share a key as they compare equal. And it
// is offset to put −Inf at 0, which wraps the sign-bit NaNs — below −Inf in
// orderKey — round to the top: every NaN lies above routeKeyInf, the key of
// +Inf, and so is below no number, as with `<`. That every number is below
// a NaN, which `<` denies, is the caller's to handle. The value cannot be
// recovered from the key.
func routeKey(v float64) uint64 {
	return uint64(orderKey(v+0) - keyNegInf)
}

// The keys of ±Inf: the bounds every non-NaN key lies within.
const (
	keyPosInf   = 0x7FF0000000000000
	keyNegInf   = -keyPosInf - 1
	routeKeyInf = keyPosInf - keyNegInf
)
