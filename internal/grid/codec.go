package grid

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// The strip codec. A raster element on disk is a little-endian IEEE-754
// float64, which on a little-endian host is exactly the memory of a
// float64: there the codec is a view (Bytes, floatsView) or one
// memmove (decode, encode), and no element is converted. Memory a kernel
// writes is always allocated as []float64 and its bytes derived from it,
// so that view is 8-byte aligned by construction; the view the other way
// round, of bytes a kernel only reads (floatsView), checks the pointer. On
// any other host the same functions convert element by element. This is
// the only file in the package that imports unsafe.

// viewable reports whether []float64 memory is already in on-disk byte
// order. It is a variable so the codec test can force the portable path
// on a little-endian host.
var viewable = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// Bytes returns the on-disk bytes of vals: on a little-endian host a view
// of vals' own memory (nothing moves), elsewhere a fresh per-element
// encoding. It is for values nobody writes while the bytes are in use — a
// finished kernel output becoming a stored strip — since a write through
// either slice would show in the other on one kind of host and not on the
// other.
func Bytes(vals []float64) []byte {
	if viewable {
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), len(vals)*ElemSize)
	}
	raw := make([]byte, len(vals)*ElemSize)
	encode(raw, vals)
	return raw
}

// floatsView returns the elements of raw, whose length is a multiple of
// ElemSize, as a view of raw's own memory — for values nobody writes while
// the view is in use, as with Bytes. It reports false, and no view, where
// there is none to be had: on a host of another byte order, and for a
// pointer that is not 8-byte aligned (a float64 load through it would be
// unaligned, and checkptr rejects the conversion).
func floatsView(raw []byte) ([]float64, bool) {
	p := unsafe.Pointer(unsafe.SliceData(raw))
	if !viewable || uintptr(p)%ElemSize != 0 {
		return nil, false
	}
	return unsafe.Slice((*float64)(p), len(raw)/ElemSize), true
}

// decode sets dst from the len(dst) little-endian elements of src.
func decode(dst []float64, src []byte) {
	if viewable {
		copy(Bytes(dst), src)
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[i*ElemSize:]))
	}
}

// encode writes the little-endian elements of src into dst.
func encode(dst []byte, src []float64) {
	if viewable {
		copy(dst, Bytes(src))
		return
	}
	for i, v := range src {
		binary.LittleEndian.PutUint64(dst[i*ElemSize:], math.Float64bits(v))
	}
}
