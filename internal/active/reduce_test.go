package active

import (
	"math"
	"testing"

	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/sim"
)

func TestExecReduceMatchesSequential(t *testing.T) {
	rig := newRig(t, layout.NewRoundRobin(4), testW, testH, testStrip)
	want := kernels.ReduceAll(kernels.Stats{}, rig.g)
	var got []float64
	var stats ReduceStats
	rig.run(t, func(p *sim.Proc) error {
		var err error
		got, stats, err = NewClient(rig.fs, rig.clu.ComputeID(0)).ExecReduce(p, kernels.Stats{}, "in")
		return err
	})
	if got[kernels.StatCount] != want[kernels.StatCount] ||
		got[kernels.StatMin] != want[kernels.StatMin] ||
		got[kernels.StatMax] != want[kernels.StatMax] ||
		math.Abs(got[kernels.StatSum]-want[kernels.StatSum]) > 1e-6 {
		t.Errorf("aggregate %v, want %v", got, want)
	}
	if stats.Servers != 4 || stats.Elements != rig.g.Len() {
		t.Errorf("stats %+v", stats)
	}
	// Only partial aggregates return: 5 values per server plus headers.
	if stats.ReturnBytes != int64(4*5*8) {
		t.Errorf("ReturnBytes = %d, want %d", stats.ReturnBytes, 4*5*8)
	}
	if rig.clu.Traffic.Bytes(metrics.ServerToClient) > 8192 {
		t.Errorf("reduction moved %d bytes to the client", rig.clu.Traffic.Bytes(metrics.ServerToClient))
	}
}

func TestExecReduceWorksOnReplicatedLayout(t *testing.T) {
	// Reductions fold primary strips only; replicas must not be counted
	// twice.
	rig := newRig(t, layout.NewGroupedReplicated(4, 8, 2), testW, testH, testStrip)
	var got []float64
	rig.run(t, func(p *sim.Proc) error {
		var err error
		got, _, err = NewClient(rig.fs, rig.clu.ComputeID(0)).ExecReduce(p, kernels.Stats{}, "in")
		return err
	})
	if got[kernels.StatCount] != float64(rig.g.Len()) {
		t.Errorf("count %v, want %d (replicas double-counted?)", got[kernels.StatCount], rig.g.Len())
	}
}

func TestExecReduceErrors(t *testing.T) {
	rig := newRig(t, layout.NewRoundRobin(4), testW, testH, testStrip)
	var errMismatch, errUnknownInput error
	var matched []float64
	rig.run(t, func(p *sim.Proc) error {
		c := NewClient(rig.fs, rig.clu.ComputeID(0))
		// The server registers histogram with 32 bins; a client handle
		// parameterized with 4 bins must be rejected, not silently merged.
		_, _, errMismatch = c.ExecReduce(p, kernels.Histogram{Bins: 4, Lo: 0, Hi: 1}, "in")
		_, _, errUnknownInput = c.ExecReduce(p, kernels.Stats{}, "missing")
		var err error
		matched, _, err = c.ExecReduce(p, kernels.Histogram{Bins: 32, Lo: 0, Hi: 256}, "in")
		return err
	})
	if errMismatch == nil {
		t.Error("mismatched reducer parametrization accepted")
	}
	if errUnknownInput == nil {
		t.Error("unknown input accepted")
	}
	if len(matched) != 32 {
		t.Errorf("matched histogram has %d bins", len(matched))
	}
}

func TestPhasesAddAndMax(t *testing.T) {
	a := Phases{LocalRead: 1, Fetch: 2, Compute: 3, Write: 4, Stall: 7, Forward: 5}
	b := Phases{LocalRead: 5, Fetch: 1, Compute: 3, Write: 2, Stall: 6, Forward: 9}
	sum := a
	sum.Add(b)
	if sum.LocalRead != 6 || sum.Fetch != 3 || sum.Compute != 6 || sum.Write != 6 || sum.Stall != 13 || sum.Forward != 14 {
		t.Errorf("Add = %+v", sum)
	}
	m := a
	m.MaxWith(b)
	if m.LocalRead != 5 || m.Fetch != 2 || m.Compute != 3 || m.Write != 4 || m.Stall != 7 || m.Forward != 9 {
		t.Errorf("MaxWith = %+v", m)
	}
}
