package active

import (
	"testing"

	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/restripe"
	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/workload"
)

// TestOutputLandsWhereItsLayoutSays restripes an input under an output
// that keeps its own layout, rewrites the input and offloads again: every
// strip is processed on, and stored at, the holder the output's layout
// names, so reading the output back returns the second run's values and
// none of the first's.
func TestOutputLandsWhereItsLayoutSays(t *testing.T) {
	rig := newRig(t, layout.NewRoundRobin(4), testW, testH, testStrip)
	rig.createOut(t, "out")
	c := NewClient(rig.fs, rig.clu.ComputeID(0))
	exec := func() {
		rig.run(t, func(p *sim.Proc) error {
			_, err := c.Exec(p, "flow-routing", "in", "out", FetchWholeStrips)
			return err
		})
	}
	exec()
	fresh := workload.Terrain(testW, testH, 12)
	mig, err := restripe.NewMigrator(rig.clu, rig.fs, restripe.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rig.fs.SetInvalidator(mig)
	rig.run(t, func(p *sim.Proc) error {
		if err := mig.Migrate(p, "in", layout.StartingAt(layout.NewGroupedReplicated(4, 2, 1), 1)); err != nil {
			return err
		}
		return rig.fs.NewClient(rig.clu.ComputeID(0)).WriteAll(p, "in", fresh.Bytes())
	})
	exec()
	want := kernels.Apply(kernels.FlowRouting{}, fresh)
	got := rig.fetch(t, "out")
	if !got.Equal(want) {
		stale := 0
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				stale++
			}
		}
		t.Errorf("%d of %d output elements are not the second run's", stale, len(want.Data))
	}
}
