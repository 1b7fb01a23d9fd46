package predict_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/hpcio/das/internal/cluster"
	"github.com/hpcio/das/internal/experiments"
	"github.com/hpcio/das/internal/features"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/pipeline"
	"github.com/hpcio/das/internal/predict"
)

// goldenSize is a file geometry of the matrix. The small one carries every
// observation; the large one is priced with nothing observed.
type goldenSize struct {
	name     string
	observed bool
	p        predict.Params
}

var goldenSizes = []goldenSize{
	{"small", true, predict.Params{ElemSize: 8, StripSize: 64, FileSize: 64 * 64, Width: 8, OutputFactor: 1}},
	{"large", false, predict.Params{ElemSize: 8, StripSize: 4096, FileSize: 2048 * 4096, Width: 512, OutputFactor: 1}},
}

func goldenLayouts(strips int64) []layout.Layout {
	moves := layout.NewMoveSet(strips)
	for s := int64(0); s < strips/2; s++ {
		moves.Set(s)
	}
	return []layout.Layout{
		layout.NewRoundRobin(4),
		layout.NewGrouped(4, 4),
		layout.NewGroupedReplicated(4, 4, 2),
		layout.NewMigrating(layout.NewRoundRobin(4), layout.NewGroupedReplicated(4, 4, 2), moves),
	}
}

func goldenPatterns(p predict.Params) []features.Pattern {
	eps := p.StripSize / p.ElemSize
	hostile := features.Pattern{Name: "hostile"}
	for _, k := range []int64{1, 2, 3} {
		hostile.Offsets = append(hostile.Offsets, features.Stride(k*eps)...)
	}
	return []features.Pattern{
		{Name: "independent"},
		{Name: "stencil", Offsets: features.EightNeighbor()},
		{Name: "aligned", Offsets: features.Stride(16 * eps)},
		hostile,
	}
}

var goldenHits = []float64{-1, 0, 0.5, 1, 2}

type goldenDown struct {
	name string
	set  map[int]bool
}

var goldenDowns = []goldenDown{
	{"none", nil},
	{"s1", map[int]bool{1: true}},
	{"s1+s2", map[int]bool{1: true, 2: true}},
}

func kernelRow(d predict.Decision) string {
	return fmt.Sprintf("offload=%v net=%d normal=%d hitfrac=%g unservable=%d local=%v reason=%q",
		d.Offload, d.OffloadNetBytes, d.NormalNetBytes, d.CacheHitFrac,
		d.Analysis.UnservableStrips, d.Analysis.LocalByLayout, d.Reason)
}

func pipelineRow(d predict.Decision) string {
	return fmt.Sprintf("offload=%v net=%d normal=%d perpass=%d hitfrac=%g reason=%q",
		d.Offload, d.OffloadNetBytes, d.NormalNetBytes, d.PerPassNetBytes, d.CacheHitFrac, d.Reason)
}

// goldenRows prices the matrix testdata/decisions.golden was recorded over,
// in the file's order. The first word of a row names the entry point that
// first answered it (Decide and the three it had beside it: a hit
// fraction, a down-set, a pipeline spec); every one of them is Estimate
// with those observations now.
func goldenRows(t *testing.T) []string {
	t.Helper()
	var rows []string
	add := func(d predict.Decision, err error, render func(predict.Decision) string, format string, args ...any) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, fmt.Sprintf(format, args...)+" -> "+render(d))
	}
	for _, sz := range goldenSizes {
		for _, lay := range goldenLayouts(sz.p.FileSize / sz.p.StripSize) {
			for _, pat := range goldenPatterns(sz.p) {
				cell := fmt.Sprintf("size=%s lay=%s pat=%s", sz.name, lay.Name(), pat.Name)
				k := predict.Kernel(pat)
				d, err := predict.Decide(pat, sz.p, lay)
				add(d, err, kernelRow, "decide %s", cell)
				if !sz.observed {
					continue
				}
				for _, hit := range goldenHits {
					d, err := predict.Estimate(k, sz.p, lay, predict.Observations{HitFrac: hit})
					add(d, err, kernelRow, "cached %s hit=%g", cell, hit)
				}
				for _, dn := range goldenDowns {
					set := dn.set
					d, err := predict.Estimate(k, sz.p, lay, predict.Observations{Down: func(srv int) bool { return set[srv] }})
					add(d, err, kernelRow, "degraded %s down=%s", cell, dn.name)
				}
			}
		}
	}

	// The terrain chain the pipeline experiment runs, compiled the way core
	// compiles it, on the two layouts that experiment uses.
	p := predict.Params{ElemSize: 8, StripSize: 4096, FileSize: 256 * 4096, Width: 512, OutputFactor: 1}
	for _, lay := range []layout.Layout{layout.NewRoundRobin(4), layout.NewGroupedReplicated(4, 4, 2)} {
		pl, err := pipeline.Compile(experiments.PipelineDAG(), kernels.Default(), kernels.DefaultCombiners(),
			kernels.DefaultReducers(), p.Width, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, hit := range goldenHits {
			d, err := predict.Estimate(pl.Spec(cluster.Default()), p, lay, predict.Observations{HitFrac: hit})
			add(d, err, pipelineRow, "pipeline lay=%s hit=%g", lay.Name(), hit)
		}
	}
	return rows
}

// update re-records testdata/decisions.golden from goldenRows, i.e. from
// Estimate as it is now: `go test ./internal/predict -run Recorded -update`.
// Only a deliberate modelling change does that.
var update = flag.Bool("update", false, "re-record testdata/decisions.golden from Estimate")

// TestEstimateReproducesRecordedDecisions holds Estimate to its recorded
// decisions over layouts × patterns × hit fractions × down-sets. The file
// was written by the entry points Estimate replaced, and re-recorded when
// the strip walk alone came to decide locality (97 rows where the
// element-level sum had claimed "all dependencies resolve locally" while
// the same decision priced fetches now say local=false), when the
// kernel price came to walk assignment runs, fetching a dependent strip
// once per run as active.exec does, not once per strip, and when a
// rejection stopped reading as an acceptance (14 rejected rows under a
// local layout now give the rejection's reason).
func TestEstimateReproducesRecordedDecisions(t *testing.T) {
	rows := goldenRows(t)
	if *update {
		var out strings.Builder
		for _, r := range rows {
			out.WriteString(r + "\n")
		}
		if err := os.WriteFile("testdata/decisions.golden", []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("re-recorded %d rows", len(rows))
		return
	}
	raw, err := os.ReadFile("testdata/decisions.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(rows) != len(want) {
		t.Fatalf("matrix has %d rows, golden %d", len(rows), len(want))
	}
	for i, r := range rows {
		if r != want[i] {
			t.Errorf("row %d:\n got %s\nwant %s", i+1, r, want[i])
		}
	}
}

// TestLocalityDefinitionsAgreeOffTheEdges is the property the switch of
// LocalByLayout from the element-level sum to the run walk rests on: over
// the matrix's healthy cells the two agree, except where a dependence
// leaves the file — there the sum says local and the walk finds the
// clamped boundary strip, and only that. A run fetches the strips its
// strips do, so each strip's NeededStrips on its primary shows what is
// fetched.
func TestLocalityDefinitionsAgreeOffTheEdges(t *testing.T) {
	for _, sz := range goldenSizes {
		strips := sz.p.FileSize / sz.p.StripSize
		for _, lay := range goldenLayouts(strips) {
			for _, pat := range goldenPatterns(sz.p) {
				a, err := predict.Analyze(pat, sz.p, lay)
				if err != nil {
					t.Fatal(err)
				}
				if (a.RemoteDeps == 0) == a.LocalByLayout {
					continue
				}
				if a.RemoteDeps != 0 {
					t.Errorf("%s %s %s: strip walk local, element sum %d", sz.name, lay.Name(), pat.Name, a.RemoteDeps)
					continue
				}
				lc := layout.NewLocator(sz.p.ElemSize, sz.p.StripSize, lay)
				eps, total := lc.ElemsPerStrip(), sz.p.TotalElems()
				var need []int64
				for s := int64(0); s < strips; s++ {
					need = predict.NeededStrips(need, lc, pat.Resolve(sz.p.Width), s*eps, min((s+1)*eps, total), total)
					for _, r := range need {
						if r != 0 && r != strips-1 && !lay.Holders(r).Has(lay.Primary(s)) {
							t.Errorf("%s %s %s: strip %d fetches interior strip %d though no element dependence is remote",
								sz.name, lay.Name(), pat.Name, s, r)
						}
					}
				}
			}
		}
	}
}
