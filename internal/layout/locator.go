package layout

import "fmt"

// Locator resolves element indices of a striped file to strips and
// servers, implementing the paper's Eqs. (1)–(4): for the i-th element of
// size E,
//
//	strip(i)    = i·E / strip_size
//	location(i) = Primary(strip(i))
//
// and for a dependent element at signed offset off,
//
//	strip(i+off)    = (i+off)·E / strip_size
//	location(i+off) = Primary(strip(i+off)).
type Locator struct {
	ElemSize  int64 // E, bytes per data element
	StripSize int64 // bytes per strip (64 KiB default in PVFS2)
	Layout    Layout
}

// NewLocator validates and builds a locator.
func NewLocator(elemSize, stripSize int64, l Layout) Locator {
	if elemSize <= 0 {
		panic(fmt.Sprintf("layout: element size must be positive, got %d", elemSize))
	}
	if stripSize <= 0 {
		panic(fmt.Sprintf("layout: strip size must be positive, got %d", stripSize))
	}
	if stripSize%elemSize != 0 {
		panic(fmt.Sprintf("layout: strip size %d not a multiple of element size %d", stripSize, elemSize))
	}
	return Locator{ElemSize: elemSize, StripSize: stripSize, Layout: l}
}

// ElemsPerStrip returns how many whole elements fit in one strip.
func (lc Locator) ElemsPerStrip() int64 { return lc.StripSize / lc.ElemSize }

// Strip returns the strip index containing element i (Eq. (1)). The
// element index must be non-negative; dependence offsets that fall before
// the start of the file are the caller's boundary condition to clamp.
func (lc Locator) Strip(i int64) int64 {
	if i < 0 {
		panic(fmt.Sprintf("layout: negative element index %d", i))
	}
	return i * lc.ElemSize / lc.StripSize
}

// Server returns the primary server for element i (Eq. (2)).
func (lc Locator) Server(i int64) int { return lc.Layout.Primary(lc.Strip(i)) }

// DepStrip returns the strip of the dependent element at offset off from
// element i (Eq. (3)), and whether that element exists within a file of
// totalElems elements.
func (lc Locator) DepStrip(i, off, totalElems int64) (strip int64, ok bool) {
	j := i + off
	if j < 0 || j >= totalElems {
		return 0, false
	}
	return lc.Strip(j), true
}

// LocalDep reports whether the dependent element at offset off from
// element i is resolvable on element i's primary server, counting both
// primary placement and replicas (the paper's aj = 0 condition under the
// improved distribution). Out-of-file dependencies are trivially local:
// boundary elements clamp instead of communicating.
func (lc Locator) LocalDep(i, off, totalElems int64) bool {
	depStrip, ok := lc.DepStrip(i, off, totalElems)
	if !ok {
		return true
	}
	return lc.Layout.Holders(depStrip).Has(lc.Server(i))
}

// Strips returns the number of strips a file of size bytes occupies.
func (lc Locator) Strips(fileSize int64) int64 {
	return (fileSize + lc.StripSize - 1) / lc.StripSize
}

// StripBounds returns the byte range [lo, hi) of strip s within the file.
func (lc Locator) StripBounds(s, fileSize int64) (lo, hi int64) {
	lo = s * lc.StripSize
	hi = lo + lc.StripSize
	if hi > fileSize {
		hi = fileSize
	}
	return lo, hi
}

// RequiredHalo returns the minimum number of group-boundary strips that
// must be replicated so that a dependence reaching at most maxAbsOffset
// elements away is always locally resolvable: ceil(maxAbsOffset·E /
// strip_size). The paper's examples have dependence spans within one strip
// and use 1.
func (lc Locator) RequiredHalo(maxAbsOffset int64) int {
	if maxAbsOffset <= 0 {
		return 0
	}
	bytes := maxAbsOffset * lc.ElemSize
	return int((bytes + lc.StripSize - 1) / lc.StripSize)
}
