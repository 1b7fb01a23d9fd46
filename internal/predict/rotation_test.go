package predict_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/hpcio/das/internal/cluster"
	"github.com/hpcio/das/internal/experiments"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/pipeline"
	"github.com/hpcio/das/internal/predict"
)

// TestEstimateIgnoresWhereAFileStarts: starting a file on another server
// relabels its servers and changes no locality, so every term Estimate
// itemises — the run walk's fetches and their bytes among them — is the
// same wherever the file's strip 0 sits. Only the layout's name, and a
// reason quoting it, may differ.
func TestEstimateIgnoresWhereAFileStarts(t *testing.T) {
	const d = 4
	same := func(cell string, base, rot predict.Decision, baseName, rotName string) {
		t.Helper()
		rot.Analysis.Layout = base.Analysis.Layout
		rot.Reason = strings.ReplaceAll(rot.Reason, rotName, baseName)
		if !reflect.DeepEqual(base, rot) {
			t.Errorf("%s:\n start 0: %+v\n rotated: %+v", cell, base, rot)
		}
	}
	lays := []layout.Layout{layout.NewRoundRobin(d), layout.NewGrouped(d, 4), layout.NewGroupedReplicated(d, 4, 2)}
	for _, sz := range goldenSizes {
		for _, lay := range lays {
			for k := 1; k < d; k++ {
				rot := layout.StartingAt(lay, k)
				for _, pat := range goldenPatterns(sz.p) {
					cell := fmt.Sprintf("size=%s lay=%s start=%d pat=%s", sz.name, lay.Name(), k, pat.Name)
					// As in the golden matrix, the large file is priced cold.
					hits := goldenHits
					if !sz.observed {
						hits = hits[1:2]
					}
					for _, hit := range hits {
						obs := predict.Observations{HitFrac: hit}
						base, err := predict.Estimate(predict.Kernel(pat), sz.p, lay, obs)
						if err != nil {
							t.Fatal(err)
						}
						got, err := predict.Estimate(predict.Kernel(pat), sz.p, rot, obs)
						if err != nil {
							t.Fatal(err)
						}
						same(fmt.Sprintf("%s hit=%g", cell, hit), base, got, lay.Name(), rot.Name())
					}
				}
			}
		}
	}

	// The terrain chain's pushdown, priced as core prices it.
	p := predict.Params{ElemSize: 8, StripSize: 4096, FileSize: 256 * 4096, Width: 512, OutputFactor: 1}
	for _, lay := range lays {
		rot := layout.StartingAt(lay, 3)
		var ds []predict.Decision
		for _, l := range []layout.Layout{lay, rot} {
			pl, err := pipeline.Compile(experiments.PipelineDAG(), kernels.Default(), kernels.DefaultCombiners(),
				kernels.DefaultReducers(), p.Width, 0)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := predict.Estimate(pl.Spec(cluster.Default()), p, l, predict.Observations{})
			if err != nil {
				t.Fatal(err)
			}
			ds = append(ds, dec)
		}
		same("pipeline lay="+lay.Name(), ds[0], ds[1], lay.Name(), rot.Name())
	}
}
