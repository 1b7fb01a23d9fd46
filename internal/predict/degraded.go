package predict

import (
	"fmt"

	"github.com/hpcio/das/internal/features"
	"github.com/hpcio/das/internal/layout"
)

// AnalyzeDegraded estimates the cost of offloading while some storage
// servers are down. Each strip is assigned to its first live holder (the
// same rule the degraded execution path uses), dependence the owner's
// layout holdings do not cover counts as a whole-strip fetch, and strips
// with no live copy at all are tallied in UnservableStrips. Only the
// strip-level cost is computed — the element-level sum assumes the healthy
// placement — so the analysis is always marked Approximated.
func AnalyzeDegraded(pat features.Pattern, p Params, lay layout.Layout, down func(srv int) bool) (Analysis, error) {
	if err := p.validate(); err != nil {
		return Analysis{}, err
	}
	live := func(srv int) bool { return !down(srv) }
	lc := layout.NewLocator(p.ElemSize, p.StripSize, lay)
	offs := pat.Resolve(p.Width)
	total := p.TotalElems()

	a := Analysis{Pattern: pat, Layout: lay.Name(), Approximated: true}
	for s := int64(0); s < lc.Strips(p.FileSize); s++ {
		owner, ok := layout.FirstLiveHolder(lay, s, live)
		if !ok {
			a.UnservableStrips++
			continue
		}
		lo, hi := lc.StripBounds(s, p.FileSize)
		e0, e1 := lo/p.ElemSize, (hi+p.ElemSize-1)/p.ElemSize
		for _, t := range NeededStrips(nil, lc, offs, e0, e1, total) {
			if t == s || layout.Holds(lay, t, owner) {
				continue
			}
			if _, ok := layout.FirstLiveHolder(lay, t, live); !ok {
				a.UnservableStrips++
				continue
			}
			a.StripFetches++
			tLo, tHi := lc.StripBounds(t, p.FileSize)
			a.StripFetchBytes += tHi - tLo
		}
	}
	a.LocalByLayout = a.StripFetches == 0 && a.UnservableStrips == 0
	return a, nil
}

// DecideDegraded applies the acceptance criterion with dead servers taken
// into account: a request whose strips (or their dependence) have no live
// copy is never offloaded — it falls back to normal I/O, which surfaces a
// typed I/O error if the data is truly gone — and otherwise the usual
// bandwidth comparison runs against the degraded fetch cost.
func DecideDegraded(pat features.Pattern, p Params, lay layout.Layout, down func(srv int) bool) (Decision, error) {
	a, err := AnalyzeDegraded(pat, p, lay, down)
	if err != nil {
		return Decision{}, err
	}
	lc := layout.NewLocator(p.ElemSize, p.StripSize, lay)
	outBytes := int64(float64(p.FileSize) * p.OutputFactor)

	d := Decision{Analysis: a}
	d.OffloadNetBytes = a.StripFetchBytes + ReplicaBytes(lc, p.FileSize) +
		int64(float64(ReplicaBytes(lc, p.FileSize))*p.OutputFactor)
	d.NormalNetBytes = p.FileSize + outBytes
	d.Offload = a.UnservableStrips == 0 && d.OffloadNetBytes < d.NormalNetBytes
	switch {
	case a.UnservableStrips > 0:
		d.Reason = fmt.Sprintf("rejected: %d strips have no live copy", a.UnservableStrips)
	case d.Offload:
		d.Reason = fmt.Sprintf("degraded offload moves %d bytes vs %d for normal I/O", d.OffloadNetBytes, d.NormalNetBytes)
	default:
		d.Reason = fmt.Sprintf("rejected: degraded offload would move %d bytes vs %d for normal I/O", d.OffloadNetBytes, d.NormalNetBytes)
	}
	return d, nil
}
