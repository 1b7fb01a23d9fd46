package predict

import (
	"fmt"

	"github.com/hpcio/das/internal/layout"
)

// PipelineStage describes one DAG node, in topological order, for
// whole-pipeline pricing: its own dependence reach against its parents'
// output (not the composed reach against the DAG input) and whether it is
// the terminal reduce.
type PipelineStage struct {
	Name string
	// Back and Fwd are the stage's own dependence reach in elements
	// against its parent rasters.
	Back, Fwd int64
	// Reduce marks the terminal aggregation (no raster output).
	Reduce bool
}

// PipelineSpec is the execution shape the pipeline planner settled on,
// handed to the predictor for pricing. The planner owns the fusion rule;
// the predictor prices the resulting schedule.
type PipelineSpec struct {
	// Stages in topological order.
	Stages []PipelineStage
	// PrefixLen is the number of leading stages fused into the first
	// dispatch, which reads the input file with a deep halo instead of
	// exchanging intermediate bands.
	PrefixLen int
	// PrefixBack and PrefixFwd are the composed (Minkowski-summed) reach
	// of the fused prefix against the DAG input.
	PrefixBack, PrefixFwd int64
	// DAGBack and DAGFwd are the composed reach of the whole DAG against
	// the input — the per-direction maxima over root-to-sink paths that
	// the I/O lower bound is built from.
	DAGBack, DAGFwd int64
}

// FusedStages counts the stages a run avoids dispatching separately: the
// fused prefix beyond its first stage plus every later zero-reach stage
// (reduces, element-wise combines), which never pulls and folds into its
// parent's round.
func (spec PipelineSpec) FusedStages() int {
	fused := spec.PrefixLen - 1
	for _, st := range spec.Stages[spec.PrefixLen:] {
		if st.Back == 0 && st.Fwd == 0 {
			fused++
		}
	}
	return fused
}

// cutPositions returns the element index of every assignment boundary:
// positions where consecutive strips have different primary servers.
// Halo traffic — and its lower bound — crosses exactly these cuts.
func cutPositions(lc layout.Locator, fileSize int64) []int64 {
	var cuts []int64
	n := lc.Strips(fileSize)
	for s := int64(1); s < n; s++ {
		if lc.Layout.Primary(s) != lc.Layout.Primary(s-1) {
			lo, _ := lc.StripBounds(s, fileSize)
			cuts = append(cuts, lo/lc.ElemSize)
		}
	}
	return cuts
}

// bandBytesAcrossCuts returns the bytes of a (back, fwd)-reach band
// crossing every cut, clamped exactly at the file edges: a cut at element
// c moves min(back, c) elements leftward and min(fwd, total-c) rightward.
func bandBytesAcrossCuts(cuts []int64, total, elemSize, back, fwd int64) int64 {
	var bytes int64
	for _, c := range cuts {
		b, f := back, fwd
		if b > c {
			b = c
		}
		if f > total-c {
			f = total - c
		}
		bytes += (b + f) * elemSize
	}
	return bytes
}

// PipelineLowerBound returns the composed-offset halo minimum for a DAG
// of the given composed reach under the layout's strip assignment: every
// assignment cut must move at least the dependence cone's width in each
// direction, clamped at the file edges. Replica-prepaid halos (DAS
// layouts) can beat this bound at run time — the bound prices what must
// cross cuts during execution for an unreplicated placement.
func PipelineLowerBound(p Params, lay layout.Layout, dagBack, dagFwd int64) (int64, error) {
	if err := p.validate(); err != nil {
		return 0, err
	}
	lc := layout.NewLocator(p.ElemSize, p.StripSize, lay)
	cuts := cutPositions(lc, p.FileSize)
	return bandBytesAcrossCuts(cuts, p.TotalElems(), p.ElemSize, dagBack, dagFwd), nil
}

// LocalHaloElems returns how many elements of halo each assignment run
// already holds locally per side: grouped-replicated layouts replicate
// Halo whole strips across group boundaries, every other layout none.
func LocalHaloElems(lay layout.Layout, lc layout.Locator) int64 {
	if gr, ok := lay.(layout.GroupedReplicated); ok {
		return int64(gr.Halo) * lc.ElemsPerStrip()
	}
	return 0
}

// price prices a whole operator DAG for server-side pushdown, decided in
// one shot instead of one accept/reject per kernel: the fused prefix's
// input halo, each later stage's intermediate boundary bands, and the final
// writeback's replica maintenance, against both the per-pass offload (which
// writes every intermediate raster back with replicas) and traditional
// storage (which ships every raster to a compute node and back).
func (spec PipelineSpec) price(d *Decision, p Params, lc layout.Locator, _ func(srv int) bool) error {
	if len(spec.Stages) == 0 {
		return fmt.Errorf("predict: pipeline with no stages")
	}
	if spec.PrefixLen < 1 || spec.PrefixLen > len(spec.Stages) {
		return fmt.Errorf("predict: fused prefix %d out of [1,%d]", spec.PrefixLen, len(spec.Stages))
	}
	cuts := cutPositions(lc, p.FileSize)
	total := p.TotalElems()
	halo := LocalHaloElems(lc.Layout, lc)
	// band prices a (back, fwd) reach pulled across every cut, beyond what
	// the layout already replicated locally.
	band := func(back, fwd, prepaid int64) int64 {
		return bandBytesAcrossCuts(cuts, total, p.ElemSize, max(back-prepaid, 0), max(fwd-prepaid, 0))
	}
	d.Analysis = Analysis{Layout: lc.Layout.Name()}
	d.InputReplicaBytes = 0 // placed at ingest; kernel pricing charges it all the same (DESIGN.md §3.1)
	d.Stages, d.FusedStages = len(spec.Stages), spec.FusedStages()
	d.LowerBoundBytes = band(spec.DAGBack, spec.DAGFwd, 0)

	// First dispatch: the fused prefix's composed halo, fetched at band
	// granularity. Later rounds: each unfused stage pulls its own-reach
	// band of its parent's output, which no replica prepaid.
	d.FetchBytes = band(spec.PrefixBack, spec.PrefixFwd, halo)
	for _, st := range spec.Stages[spec.PrefixLen:] {
		d.ExchangeBytes += band(st.Back, st.Fwd, 0)
	}

	// Alternatives. Per-pass offload: every stage fetches its own halo
	// beyond the local coverage and every raster-producing stage pays
	// replica writeback of its output. Traditional storage: every pass
	// ships the raster down and the result back (the reduce returns only
	// an aggregate, but still reads the raster).
	outBytes := int64(float64(p.FileSize) * p.OutputFactor)
	for _, st := range spec.Stages {
		if st.Reduce {
			continue
		}
		d.PerPassNetBytes += band(st.Back, st.Fwd, halo) + d.OutputReplicaBytes
		d.NormalNetBytes += p.FileSize + outBytes
	}
	if spec.Stages[len(spec.Stages)-1].Reduce {
		d.NormalNetBytes += p.FileSize
	}
	return nil
}

func (spec PipelineSpec) reason(d *Decision, obs Observations) string {
	var r string
	switch {
	case !d.Offload:
		r = fmt.Sprintf("rejected: pushdown would move %d bytes vs %d for normal I/O", d.OffloadNetBytes, d.NormalNetBytes)
	case !d.BeatsPerPass:
		r = fmt.Sprintf("pushdown moves %d bytes but per-pass offload moves %d; prefer per-pass", d.OffloadNetBytes, d.PerPassNetBytes)
	default:
		r = fmt.Sprintf("pushdown moves %d bytes vs %d per-pass and %d normal (%d-stage DAG, %d fused, lower bound %d)",
			d.OffloadNetBytes, d.PerPassNetBytes, d.NormalNetBytes, d.Stages, d.FusedStages, d.LowerBoundBytes)
	}
	if d.TailNum != d.TailDen {
		r += fmt.Sprintf(" — fetch p99 %v vs threshold %v inflates moving bytes %.2f×",
			obs.FetchP99, obs.LatencyHigh, float64(d.TailNum)/float64(d.TailDen))
	}
	return r
}
