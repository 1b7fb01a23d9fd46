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
	"slices"

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

// exactLimit bounds the element×offset product for which the element-level
// sum is computed exactly; beyond it a periodic estimate is used.
const exactLimit = 1 << 22

// Analysis is the bandwidth prediction for one (pattern, layout) pair.
type Analysis struct {
	Pattern features.Pattern
	Layout  string // layout.Layout.Name() the analysis ran against

	// Element-level cost (paper Eq. (5)).
	RemoteDeps   int64   // Σ aj over all elements and offsets
	BWCostBytes  int64   // E · Σ aj
	RemoteFrac   float64 // fraction of (element, offset) pairs that are remote
	Approximated bool    // the periodic estimate was used, or (servers down) no sum was taken

	// Strip-level cost: what an active storage run actually moves.
	StripFetches    int64 // whole-strip transfers between servers
	StripFetchBytes int64

	// UnservableStrips counts strips with no copy on any live server: owned
	// strips nobody can process plus dependent strips nobody can serve.
	// Zero on a healthy cluster; any non-zero value vetoes offloading.
	UnservableStrips int64

	// LocalByLayout is true when the strip walk finds nothing to fetch and
	// nothing unservable — exactly what an active.LocalOnly run needs. The
	// element-level sum above can say zero where this says false: Eq. (5)
	// counts a dependence that leaves the file as local, while the kernel
	// clamps it to the boundary element and so reads that element's strip;
	// and the periodic estimate knows no period for a migrating layout.
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

// analyze runs the strip walk and, on a healthy cluster (down == nil), the
// element-level sum. With servers down only the strip-level cost is
// computed — Eq. (5) assumes the healthy placement — and the analysis is
// marked Approximated.
func analyze(pat features.Pattern, p Params, lc layout.Locator, down func(srv int) bool) Analysis {
	offs := pat.Resolve(p.Width)
	a := Analysis{Pattern: pat, Layout: lc.Layout.Name()}
	var live func(srv int) bool
	if down != nil {
		live = func(srv int) bool { return !down(srv) }
		a.Approximated = true
	} else {
		total := p.TotalElems()
		a.RemoteDeps, a.Approximated = remoteDeps(lc, offs, total)
		a.BWCostBytes = a.RemoteDeps * p.ElemSize
		if n := total * int64(len(offs)); n > 0 {
			a.RemoteFrac = float64(a.RemoteDeps) / float64(n)
		}
	}
	var plan []StripFetch
	plan, a.UnservableStrips = fetchPlan(lc, offs, p.FileSize, live)
	for _, f := range plan {
		a.StripFetches += int64(len(f.Remote))
		for _, t := range f.Remote {
			lo, hi := lc.StripBounds(t, p.FileSize)
			a.StripFetchBytes += hi - lo
		}
	}
	a.LocalByLayout = a.StripFetches == 0 && a.UnservableStrips == 0
	return a
}

// remoteDeps computes Σ aj. Small problems are summed exactly; large ones
// use the placement's periodicity: remote-ness of (i, off) depends only on
// i mod P in the file interior, with P = groupSpan·D elements, so one
// period well inside the file is summed and scaled. Either sum is taken
// strip by strip (remoteInStrips): one prediction costs
// O(strips · offsets), not O(elements · offsets).
func remoteDeps(lc layout.Locator, offs []int64, total int64) (sum int64, approx bool) {
	eps, period := lc.ElemsPerStrip(), periodElems(lc)
	var maxAbs int64
	for _, off := range offs {
		maxAbs = max(maxAbs, off, -off)
	}
	// The sampled period sits well inside the file so no dependence is
	// clamped; a file too small relative to its period for that is summed
	// exactly whatever its size.
	base := ((maxAbs + period - 1) / period) * period
	if total*int64(len(offs)) <= exactLimit || base+period+maxAbs > total {
		return remoteInStrips(lc, offs, 0, (total+eps-1)/eps, total), false
	}
	return remoteInStrips(lc, offs, base/eps, (base+period)/eps, total) * (total / period), true
}

// remoteInStrips sums aj over the elements of strips [s0, s1) exactly. The
// elements [e0, e1) of one strip map, under one offset, to the contiguous
// range [e0+off, e1+off); the part of it inside the file covers a strip or
// two, and the elements landing in each are remote together or not at
// all: when the strip's owner holds no copy of that target. What leaves
// the file is local, as in Locator.LocalDep — the same integers as asking
// it per element.
func remoteInStrips(lc layout.Locator, offs []int64, s0, s1, total int64) (sum int64) {
	eps := lc.ElemsPerStrip()
	for s := s0; s < s1; s++ {
		owner := lc.Layout.Primary(s)
		e0, e1 := s*eps, min((s+1)*eps, total)
		for _, off := range offs {
			lo, hi := max(e0+off, 0), min(e1+off, total)
			if hi <= lo {
				continue
			}
			for t := lc.Strip(lo); t*eps < hi; t++ {
				if !layout.Holds(lc.Layout, t, owner) {
					sum += min((t+1)*eps, hi) - max(t*eps, lo)
				}
			}
		}
	}
	return sum
}

// periodElems returns the placement period in elements for the supported
// layout families.
func periodElems(lc layout.Locator) int64 {
	group := int64(1)
	switch l := lc.Layout.(type) {
	case layout.Grouped:
		group = int64(l.R)
	case layout.GroupedReplicated:
		group = int64(l.R)
	}
	return group * int64(lc.Layout.Servers()) * lc.ElemsPerStrip()
}

// StripFetch lists the remote strips the owner of one primary strip must
// transfer to process it.
type StripFetch struct {
	Strip  int64   // the primary strip being processed
	Owner  int     // the server processing it, as a layout.Placer places it
	Remote []int64 // strips to fetch from other servers, ascending
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

// FetchPlan computes, for every strip of the file, which other strips its
// owner lacks locally but needs to resolve the strip's dependencies. This
// is exactly the fetch sequence the simulator's active storage servers
// execute, so predicted strip traffic equals measured traffic.
func FetchPlan(lc layout.Locator, offs []int64, fileSize int64) []StripFetch {
	plan, _ := fetchPlan(lc, offs, fileSize, nil)
	return plan
}

// fetchPlan is the one strip walk. Each strip is processed where a
// layout.Placer places it fresh — its primary on a healthy cluster
// (live == nil), the schedule Exec dispatches otherwise — and dependence
// that owner does not hold is a whole-strip fetch. A strip with no live
// holder has no entry in the plan, a dependent strip with none is not
// fetched, and both are counted unservable.
func fetchPlan(lc layout.Locator, offs []int64, fileSize int64, live func(srv int) bool) (plan []StripFetch, unservable int64) {
	if live == nil {
		live = func(int) bool { return true }
	}
	total := fileSize / lc.ElemSize
	strips := lc.Strips(fileSize)
	plan = make([]StripFetch, 0, strips)
	placer := layout.NewPlacer(lc.Layout, live)
	var needed []int64
	for s := int64(0); s < strips; s++ {
		owner, ok := placer.Place(s, true)
		if !ok {
			unservable++
			continue
		}
		lo, hi := lc.StripBounds(s, fileSize)
		e0, e1 := lo/lc.ElemSize, (hi+lc.ElemSize-1)/lc.ElemSize
		f := StripFetch{Strip: s, Owner: owner}
		needed = NeededStrips(needed, lc, offs, e0, e1, total)
		for _, t := range needed {
			if t == s || layout.Holds(lc.Layout, t, owner) {
				continue
			}
			if !slices.ContainsFunc(layout.Holders(lc.Layout, t), live) {
				unservable++
				continue
			}
			f.Remote = append(f.Remote, t)
		}
		plan = append(plan, f)
	}
	return plan, unservable
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
