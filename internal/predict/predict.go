// Package predict implements the paper's bandwidth analysis and
// prediction core (§III-C): given an operator's dependence pattern, the
// file's striping geometry, and the layout of strips over storage servers,
// it estimates the extra data movement an offloaded (active storage)
// execution would cause and decides whether offloading beats serving the
// request as normal I/O.
//
// Two granularities are computed. The element-level cost is the paper's
// Eq. (5): bwcost = E · Σ aj, with aj = 1 when the j-th dependent element
// of an element lives on a different server. The strip-level cost models
// what a real active storage server actually transfers — whole strips
// fetched from their owners — and is the quantity the simulator's Normal
// Active Storage scheme reproduces byte for byte.
package predict

import (
	"fmt"
	"math"

	"github.com/hpcio/das/internal/features"
	"github.com/hpcio/das/internal/layout"
)

// Params describes the file and system geometry a prediction runs against.
type Params struct {
	ElemSize  int64 // E, bytes per element
	StripSize int64 // bytes per strip
	FileSize  int64 // bytes in the input file
	Width     int   // raster width in elements (resolves symbolic offsets)
	// OutputFactor scales the operator's output size relative to its
	// input (1.0 for the paper's same-size kernels). It participates in
	// the normal-I/O cost: a TS client writes the output back.
	OutputFactor float64
}

// TotalElems returns the number of whole elements in the file.
func (p Params) TotalElems() int64 { return p.FileSize / p.ElemSize }

func (p Params) validate() error {
	switch {
	case p.ElemSize <= 0:
		return fmt.Errorf("predict: element size %d", p.ElemSize)
	case p.StripSize <= 0 || p.StripSize%p.ElemSize != 0:
		return fmt.Errorf("predict: strip size %d not a positive multiple of element size %d", p.StripSize, p.ElemSize)
	case p.FileSize <= 0 || p.FileSize%p.ElemSize != 0:
		return fmt.Errorf("predict: file size %d not a positive multiple of element size %d", p.FileSize, p.ElemSize)
	case p.Width <= 0:
		return fmt.Errorf("predict: width %d", p.Width)
	case p.OutputFactor < 0:
		return fmt.Errorf("predict: output factor %v", p.OutputFactor)
	}
	return nil
}

// Analysis is the bandwidth prediction for one (pattern, layout) pair.
type Analysis struct {
	Pattern features.Pattern
	Layout  string // layout.Layout.Name() the analysis ran against

	// Element-level cost (paper Eq. (5)).
	RemoteDeps  int64   // Σ aj over all elements and offsets
	BWCostBytes int64   // E · Σ aj
	RemoteFrac  float64 // fraction of (element, offset) pairs that are remote

	// Strip-level cost: what an active storage run actually moves — one
	// whole-strip transfer per assignment run per dependent strip its
	// server does not hold.
	StripFetches    int64
	StripFetchBytes int64

	// UnservableStrips counts strips with no copy on any live server: owned
	// strips nobody can process plus, per run, dependent strips nobody can
	// serve. Zero on a healthy cluster; any non-zero value vetoes offloading.
	UnservableStrips int64

	// LocalByLayout is true when the run walk finds nothing to fetch and
	// nothing unservable — exactly what an active.LocalOnly run needs. The
	// element-level sum above can say zero where this says false: Eq. (5)
	// counts a dependence that leaves the file as local, while the kernel
	// clamps it to the boundary element and so reads that element's strip.
	LocalByLayout bool
}

// Analyze computes the bandwidth cost of offloading the operator with the
// given dependence pattern against a concrete layout on a healthy cluster.
func Analyze(pat features.Pattern, p Params, lay layout.Layout) (Analysis, error) {
	if err := p.validate(); err != nil {
		return Analysis{}, err
	}
	return analyze(pat, p, layout.NewLocator(p.ElemSize, p.StripSize, lay), nil), nil
}

// analyze walks the assignment runs and, on a healthy cluster (down ==
// nil), takes the element-level sum. With servers down only the
// strip-level cost is computed: Eq. (5) assumes the healthy placement.
//
// The walk is active.exec's: each run's server lists NeededStrips over
// the run's elements and fetches every listed strip it does not hold,
// whole, once for the run; a listed strip no live server holds is
// unservable.
func analyze(pat features.Pattern, p Params, lc layout.Locator, down func(srv int) bool) Analysis {
	offs, total := pat.Resolve(p.Width), p.TotalElems()
	a := Analysis{Pattern: pat, Layout: lc.Layout.Name()}
	if down == nil {
		a.RemoteDeps = remoteDeps(lc, offs, total)
		a.BWCostBytes = a.RemoteDeps * p.ElemSize
		if n := total * int64(len(offs)); n > 0 {
			a.RemoteFrac = float64(a.RemoteDeps) / float64(n)
		}
	}
	var runs [][]stripRun
	runs, a.UnservableStrips = assignmentRuns(lc, p.FileSize, down)
	var needed []int64
	for srv, rs := range runs {
		for _, run := range rs {
			needed = NeededStrips(needed, lc, offs, run.lo, run.hi, total)
			for _, t := range needed {
				switch holders := lc.Layout.Holders(t); {
				case holders.Has(srv):
				case down != nil && !liveCopy(holders, down):
					a.UnservableStrips++
				default:
					lo, hi := lc.StripBounds(t, p.FileSize)
					a.StripFetches++
					a.StripFetchBytes += hi - lo
				}
			}
		}
	}
	a.LocalByLayout = a.StripFetches == 0 && a.UnservableStrips == 0
	return a
}

// remoteDeps computes Σ aj exactly, strip by strip: one prediction costs
// O(strips · offsets), not O(elements · offsets). The elements [e0, e1)
// of one strip map, under one offset, to the contiguous range
// [e0+off, e1+off); the part of it inside the file covers a strip or two,
// and the elements landing in each are remote together or not at all:
// when the strip's owner holds no copy of that target. What leaves the
// file is local, as in Locator.LocalDep — the same integers as asking it
// per element.
func remoteDeps(lc layout.Locator, offs []int64, total int64) (sum int64) {
	eps := lc.ElemsPerStrip()
	for s := int64(0); s*eps < total; s++ {
		owner := lc.Layout.Primary(s)
		e0, e1 := s*eps, min((s+1)*eps, total)
		for _, off := range offs {
			lo, hi := max(e0+off, 0), min(e1+off, total)
			if hi <= lo {
				continue
			}
			for t := lc.Strip(lo); t*eps < hi; t++ {
				if !lc.Layout.Holders(t).Has(owner) {
					sum += min((t+1)*eps, hi) - max(t*eps, lo)
				}
			}
		}
	}
	return sum
}

// liveCopy reports whether a server that down does not report holds the
// strip.
func liveCopy(holders layout.Holders, down func(srv int) bool) bool {
	for i := 0; i < holders.Len(); i++ {
		if !down(holders.At(i)) {
			return true
		}
	}
	return false
}

// stripRun is a maximal range of consecutive strips placed on one server:
// the unit a storage server assembles, computes and stores.
type stripRun struct {
	first, last int64 // strips, inclusive
	lo, hi      int64 // elements
}

// assignmentRuns returns each server's runs, ascending, and the strips no
// live server holds: the first wave Exec dispatches, every strip placed
// fresh by one layout.Placer — on a healthy cluster (down == nil), on its
// primary.
func assignmentRuns(lc layout.Locator, fileSize int64, down func(srv int) bool) (runs [][]stripRun, unservable int64) {
	placer := layout.NewPlacer(lc.Layout, func(srv int) bool { return down == nil || !down(srv) })
	runs = make([][]stripRun, lc.Layout.Servers())
	prev := -1
	for s := int64(0); s < lc.Strips(fileSize); s++ {
		srv, ok := placer.Place(s, true)
		if !ok {
			unservable++
			prev = -1
			continue
		}
		lo, hi := lc.StripBounds(s, fileSize)
		if srv == prev {
			r := &runs[srv][len(runs[srv])-1]
			r.last, r.hi = s, hi/lc.ElemSize
			continue
		}
		runs[srv] = append(runs[srv], stripRun{first: s, last: s, lo: lo / lc.ElemSize, hi: hi / lc.ElemSize})
		prev = srv
	}
	return runs, unservable
}

// NeededStrips returns, in ascending order, every strip containing an
// element the processing of owned range [e0, e1) touches: the owned
// elements themselves plus each dependence offset's image of the range,
// clamped to the file. For a dense stencil this is the contiguous halo
// window; for a sparse stride it is a handful of disjoint strips — the
// distinction that makes an Eq. (17)-aligned stride free. The list is
// built in dst's memory when it has the room (dst's contents are
// overwritten; nil is fine): a server asks once per run of every request.
func NeededStrips(dst []int64, lc layout.Locator, offs []int64, e0, e1, total int64) []int64 {
	dst = dst[:0]
	// The answer is a union of intervals of strips, one per offset and one
	// for the owned range itself. It is emitted in ascending order, an
	// interval's worth at a time: of the intervals reaching next or beyond,
	// the one that starts lowest (there, the one that ends highest).
	for next := int64(0); ; {
		from, to := int64(math.MaxInt64), int64(-1)
		for i := -1; i < len(offs); i++ {
			lo, hi := e0, e1-1 // element range, inclusive: the owned elements first
			if i >= 0 {
				lo, hi = lo+offs[i], hi+offs[i]
			}
			// Kernels clamp out-of-file dependencies to the nearest
			// boundary element, so a range that leaves the file still
			// reads that boundary element's strip.
			tLo, tHi := lc.Strip(min(max(lo, 0), total-1)), lc.Strip(min(max(hi, 0), total-1))
			if tHi < next {
				continue
			}
			tLo = max(tLo, next)
			if tLo < from || tLo == from && tHi > to {
				from, to = tLo, tHi
			}
		}
		if to < 0 {
			return dst
		}
		for t := from; t <= to; t++ {
			dst = append(dst, t)
		}
		next = to + 1
	}
}

// Eq17 implements the paper's offloading criterion for a pure stride
// pattern under the improved distribution (Eq. (17)):
//
//	stride·E / (r·strip_size) mod D == 0
//
// read strictly: stride·E must be a whole number of r-strip groups, and
// that number must be a multiple of D, so every element and both its
// dependencies land on the same server for every position in the file.
func Eq17(stride, elemSize, stripSize int64, r, d int) bool {
	groupBytes := int64(r) * stripSize
	bytes := stride * elemSize
	if bytes < 0 {
		bytes = -bytes
	}
	if bytes%groupBytes != 0 {
		return false
	}
	return (bytes/groupBytes)%int64(d) == 0
}
