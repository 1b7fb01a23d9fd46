package predict

import (
	"fmt"
	"strings"

	"github.com/hpcio/das/internal/features"
	"github.com/hpcio/das/internal/layout"
)

// Spec is what an estimate prices: one kernel's dependence pattern (Kernel)
// or a compiled operator DAG (PipelineSpec). The two differ in how
// dependent data reaches a server — whole strips fetched from their owners
// against bands pulled across assignment cuts — and feed the same terms.
type Spec interface {
	// price fills the decision's analysis, its undiscounted FetchBytes,
	// ExchangeBytes and the alternatives. Both replica terms arrive
	// charged; a spec that does not pay one clears it.
	price(d *Decision, p Params, lc layout.Locator, down func(srv int) bool) error
	// reason summarizes the finished decision in one sentence.
	reason(d *Decision) string
}

// Observations is what the platform has measured when a decision is
// taken. The zero value is a cold, healthy cluster.
type Observations struct {
	// HitFrac is the byte hit fraction the halo-strip cache observed for
	// the file, clamped to [0,1]: dependent bytes expected to be served
	// from cache never cross the interconnect.
	HitFrac float64
	// Down reports the storage servers that are down (nil: none). Strips
	// are then costed where layout.Placer places them fresh, the schedule
	// Exec's first dispatch round runs, and a strip with no live copy
	// vetoes offloading — the request falls back to normal I/O, which
	// surfaces a typed I/O error if the data is truly gone. Pipeline
	// pricing ignores it: a DAG pushdown on a degraded cluster runs the
	// depth a healthy one would, and core does not take its verdict.
	Down func(srv int) bool
}

// Decision is the outcome of the DAS workflow's accept/reject step
// (Fig. 3): whether to serve a request as active storage or as normal I/O,
// with the itemised terms of Eqs. (11)–(13) the verdict was reached from
// (DESIGN.md "Cost model" has the term table).
type Decision struct {
	// Analysis is the kernel's run walk and Eq. (5) sum; under pipeline
	// pricing only Layout is set.
	Analysis Analysis

	// FetchBytes is the dependent-data fetch after the cache discount:
	// whole strips for a kernel, the fused prefix's input halo bands for a
	// pipeline. HitDiscountBytes is what the discount took off.
	FetchBytes, HitDiscountBytes int64
	// ExchangeBytes is the intermediate boundary bands later pipeline
	// stages pull across assignment cuts (zero for a kernel).
	ExchangeBytes int64
	// InputReplicaBytes is the replica placement of the input file, which
	// kernel pricing charges and pipeline pricing does not;
	// OutputReplicaBytes the replica maintenance of the written output.
	InputReplicaBytes, OutputReplicaBytes int64
	// CacheHitFrac is the clamped hit fraction the fetch was discounted by.
	CacheHitFrac float64

	// OffloadNetBytes is the predicted server↔server traffic of the
	// offloaded run: the moving bytes — fetch and exchange — plus both
	// replica terms.
	OffloadNetBytes int64
	// NormalNetBytes is the client↔server traffic of serving the request
	// as normal I/O: every pass reads its input to a compute node and
	// writes its output back.
	NormalNetBytes int64
	// PerPassNetBytes prices running a pipeline one offloaded kernel per
	// pass — each stage's own halo fetch plus replica writeback of every
	// intermediate raster — and LowerBoundBytes is the composed-offset halo
	// minimum achieved halo traffic is reported against. Stages is the DAG
	// size and FusedStages how many of them needed no exchange round. All
	// zero for a kernel.
	PerPassNetBytes, LowerBoundBytes int64
	Stages, FusedStages              int
	// Depths prices every fusion depth of a pipeline's leading chain
	// (Depths[k-1] fuses k stages) and Depth is the one chosen: the
	// fewest predicted seconds, ties to the shallower. FetchBytes and
	// ExchangeBytes are the chosen depth's. Empty and 0 for a kernel.
	Depths []DepthPrice
	Depth  int

	// Degraded records that a down-set was observed: strips were costed at
	// the holders layout.Placer gives them and no element-level sum was
	// taken.
	Degraded bool
	// Offload is true when nothing is unservable and active storage is
	// predicted to move fewer bytes over the interconnect than normal I/O.
	// BeatsPerPass (pipelines only) additionally ranks the pushdown at or
	// under the per-pass offload: a tie prefers the pushdown, since
	// per-pass also writes and re-reads every intermediate on disk, which
	// the interconnect model does not price.
	Offload, BeatsPerPass bool
	// Reason summarizes the decision for logs and reports.
	Reason string
}

// Decide is Estimate for one kernel with nothing observed: the paper's
// acceptance criterion on a cold, healthy cluster.
func Decide(pat features.Pattern, p Params, lay layout.Layout) (Decision, error) {
	return Estimate(Kernel(pat), p, lay, Observations{})
}

// Estimate prices spec against a concrete layout under what the platform
// has observed and applies the paper's acceptance criterion: offload if
// and only if it is predicted to consume less bandwidth than normal
// processing. The spec supplies the terms; the hit-fraction clamp and
// discount and the comparison happen here, once.
func Estimate(spec Spec, p Params, lay layout.Layout, obs Observations) (Decision, error) {
	if err := p.validate(); err != nil {
		return Decision{}, err
	}
	lc := layout.NewLocator(p.ElemSize, p.StripSize, lay)
	replica := ReplicaBytes(lc, p.FileSize)
	d := Decision{
		InputReplicaBytes:  replica,
		OutputReplicaBytes: int64(float64(replica) * p.OutputFactor),
		CacheHitFrac:       min(max(obs.HitFrac, 0), 1),
		Degraded:           obs.Down != nil,
	}
	if err := spec.price(&d, p, lc, obs.Down); err != nil {
		return Decision{}, err
	}
	undiscounted := d.FetchBytes
	d.FetchBytes = int64(float64(undiscounted) * (1 - d.CacheHitFrac))
	d.HitDiscountBytes = undiscounted - d.FetchBytes
	d.OffloadNetBytes = d.FetchBytes + d.ExchangeBytes + d.InputReplicaBytes + d.OutputReplicaBytes
	d.Offload = d.Analysis.UnservableStrips == 0 && d.OffloadNetBytes < d.NormalNetBytes
	d.BeatsPerPass = d.Stages > 0 && d.OffloadNetBytes <= d.PerPassNetBytes
	d.Reason = spec.reason(&d)
	return d, nil
}

// Kernel prices a single offloaded kernel from its dependence pattern:
// every server fetches, run by run, the dependent strips it does not hold,
// and the layout's replicas are paid for twice — placing the input and
// maintaining the output.
type Kernel features.Pattern

func (k Kernel) price(d *Decision, p Params, lc layout.Locator, down func(srv int) bool) error {
	d.Analysis = analyze(features.Pattern(k), p, lc, down)
	d.FetchBytes = d.Analysis.StripFetchBytes
	d.NormalNetBytes = p.FileSize + int64(float64(p.FileSize)*p.OutputFactor)
	return nil
}

func (k Kernel) reason(d *Decision) string {
	a := d.Analysis
	switch {
	case a.UnservableStrips > 0:
		return fmt.Sprintf("rejected: %d strips have no live copy", a.UnservableStrips)
	case d.Degraded && d.Offload:
		return fmt.Sprintf("degraded offload moves %d bytes vs %d for normal I/O", d.OffloadNetBytes, d.NormalNetBytes)
	case d.Degraded:
		return fmt.Sprintf("rejected: degraded offload would move %d bytes vs %d for normal I/O", d.OffloadNetBytes, d.NormalNetBytes)
	case a.LocalByLayout:
		return "all dependencies resolve locally under " + a.Layout
	case d.Offload && d.CacheHitFrac > 0:
		return fmt.Sprintf("offload moves %d bytes vs %d for normal I/O (dependent fetches discounted by %.0f%% cache hits)",
			d.OffloadNetBytes, d.NormalNetBytes, 100*d.CacheHitFrac)
	case d.Offload:
		return fmt.Sprintf("offload moves %d bytes vs %d for normal I/O", d.OffloadNetBytes, d.NormalNetBytes)
	default:
		return fmt.Sprintf("rejected: offload would move %d bytes vs %d for normal I/O", d.OffloadNetBytes, d.NormalNetBytes)
	}
}

// Explain renders the decision's itemised terms, one per line, ending in
// the verdict — the one rendering dasctl, dasadvise and the advisor
// example print. Terms that are neutral (no cache hits, nothing
// unservable) are left out.
func (d Decision) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "offload=%v under %s\n", d.Offload, d.Analysis.Layout)
	term := func(name string, bytes int64, note string) {
		fmt.Fprintf(&b, "  %-18s %14d bytes%s\n", name, bytes, note)
	}
	a := d.Analysis
	if d.Stages > 0 {
		term("prefix halo fetch", d.FetchBytes, fmt.Sprintf("  (%d-stage DAG, %d fused)", d.Stages, d.FusedStages))
		term("stage exchange", d.ExchangeBytes, "")
	} else {
		if !d.Degraded {
			term("bwcost, Eq. (5)", a.BWCostBytes, fmt.Sprintf("  (%.1f%% of dependencies remote)", 100*a.RemoteFrac))
		}
		term("dependent fetch", d.FetchBytes, fmt.Sprintf("  (%d whole strips)", a.StripFetches))
		term("input replicas", d.InputReplicaBytes, "")
	}
	term("output replicas", d.OutputReplicaBytes, "")
	if d.CacheHitFrac > 0 {
		term("cache discount", d.HitDiscountBytes, fmt.Sprintf("  (%.0f%% hits, already off the fetch)", 100*d.CacheHitFrac))
	}
	if a.UnservableStrips > 0 {
		fmt.Fprintf(&b, "  %-18s %14d with no live copy\n", "unservable strips", a.UnservableStrips)
	}
	term("offload total", d.OffloadNetBytes, "")
	term("normal I/O", d.NormalNetBytes, "")
	if d.Stages > 0 {
		term("per-pass offload", d.PerPassNetBytes, "")
		term("halo lower bound", d.LowerBoundBytes, "")
		for k, dp := range d.Depths {
			chosen := ""
			if k+1 == d.Depth {
				chosen = "  (chosen)"
			}
			fmt.Fprintf(&b, "  %-18s %14.6f s  (fetch %d, exchange %d bytes)%s\n",
				fmt.Sprintf("fusion depth %d", k+1), dp.Seconds.Seconds(), dp.FetchBytes, dp.ExchangeBytes, chosen)
		}
	}
	fmt.Fprintf(&b, "  verdict: %s\n", d.Reason)
	return b.String()
}

// ReplicaBytes returns the bytes a replica-maintaining layout moves
// between servers to place one copy of every replicated strip when a file
// of the given size is written or migrated.
func ReplicaBytes(lc layout.Locator, fileSize int64) int64 {
	var total int64
	for s := int64(0); s < lc.Strips(fileSize); s++ {
		lo, hi := lc.StripBounds(s, fileSize)
		total += int64(lc.Layout.Holders(s).Len()-1) * (hi - lo)
	}
	return total
}

// DefaultMaxOverhead is the replication capacity budget (2·halo/r) every
// planner targets — DAS layout planning, online restriping, dasctl's
// recommendation: with the paper's halo of one strip this yields the "2/r"
// overhead of §III-D at r = 4.
const DefaultMaxOverhead = 0.5

// RecommendLayout chooses the improved data distribution (§III-D) for an
// operator: the halo is the smallest that makes the pattern's farthest
// dependence local, and the group size r is the smallest keeping the
// replication capacity overhead 2·halo/r within maxOverhead. It returns
// ok = false when the pattern has no dependence, in which case the default
// round-robin layout is already optimal and no change is recommended.
func RecommendLayout(pat features.Pattern, p Params, d int, maxOverhead float64) (layout.GroupedReplicated, bool, error) {
	if err := p.validate(); err != nil {
		return layout.GroupedReplicated{}, false, err
	}
	if d <= 0 {
		return layout.GroupedReplicated{}, false, fmt.Errorf("predict: server count %d", d)
	}
	if maxOverhead <= 0 || maxOverhead > 2 {
		return layout.GroupedReplicated{}, false, fmt.Errorf("predict: overhead budget %v out of (0,2]", maxOverhead)
	}
	maxAbs := pat.MaxAbsOffset(p.Width)
	if maxAbs == 0 {
		return layout.GroupedReplicated{}, false, nil
	}
	probe := layout.NewLocator(p.ElemSize, p.StripSize, layout.NewRoundRobin(d))
	halo := probe.RequiredHalo(maxAbs)
	// Smallest r with 2·halo/r ≤ maxOverhead, but never smaller than the
	// halo itself (a group must contain the strips it replicates).
	r := int(float64(2*halo)/maxOverhead + 0.9999999)
	if float64(2*halo)/float64(r) > maxOverhead {
		r++
	}
	if r < halo {
		r = halo
	}
	return layout.NewGroupedReplicated(d, r, halo), true, nil
}
