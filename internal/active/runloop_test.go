package active

import (
	"bytes"
	"errors"
	"testing"

	"github.com/hpcio/das/internal/cluster"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/trace"
)

// TestSingleRunTakesTheSerialSteps: a request with one run per server and
// no output replicas — every tenants offload: 8 KiB strips, a strip per
// server — has nothing to overlap, and walks it as the serial loop did:
// the same time to the nanosecond, and the same events but two a server.
// The serial loop spawned a forwarding process per run even with no
// replica holder to forward to, and parked until it had come and gone;
// forwards are now a process per holder, none here. The counts and times
// were recorded from the serial loop (commit 2a95e7f) on this rig before
// it was replaced.
func TestSingleRunTakesTheSerialSteps(t *testing.T) {
	const servers = 4
	for _, tc := range []struct {
		mode         FetchMode
		serialEvents uint64
		serialExec   sim.Time
	}{
		{FetchWholeStrips, 145, 1511482},
		{FetchRows, 146, 1204604},
	} {
		rig := newRig(t, layout.NewRoundRobin(servers), 64, 64, 8192)
		rig.createOut(t, "out")
		before := rig.clu.Eng.Events()
		var took sim.Time
		rig.run(t, func(p *sim.Proc) error {
			t0 := p.Now()
			_, err := NewClient(rig.fs, rig.clu.ComputeID(0)).Exec(p, "flow-routing", "in", "out", tc.mode)
			took = p.Now() - t0
			return err
		})
		if events := rig.clu.Eng.Events() - before; events != tc.serialEvents-2*servers || took != tc.serialExec {
			t.Errorf("%v: %d events, %dns; the serial loop took %d events (less %d for its idle forwarders), %dns",
				tc.mode, events, int64(took), tc.serialEvents, 2*servers, int64(tc.serialExec))
		}
		if got := rig.fetch(t, "out"); !got.Equal(kernels.Apply(kernels.FlowRouting{}, rig.g)) {
			t.Errorf("%v: output differs from the sequential reference", tc.mode)
		}
	}
}

// TestPrefetchedBandKeepsWhatItWasLent: a band assembled one run ahead
// waits through the run before it, and a foreign write may replace one of
// its strips meanwhile. Stored strips are immutable and the band was lent
// the slice that was stored then (pfs's TestLentViewOutlivesTheStrip), so
// the kernel computes on what the prefetch read. The strip replaced here
// is interior to its run — no replica, no other run's halo — so the whole
// output is the old raster's, while the file reads the new bytes.
func TestPrefetchedBandKeepsWhatItWasLent(t *testing.T) {
	cfg := cluster.Default()
	cfg.ComputeNsPerElem *= 100 // compute-bound: a prefetched band waits milliseconds
	lay := layout.NewGroupedReplicated(4, 8, 2)
	const h = 128 // 16 groups of 8 one-row strips: four runs a server
	const victim = 32 + 3
	if lay.Primary(victim) != 0 || len(lay.Replicas(victim)) != 0 || lay.Primary(32) != 0 || lay.Primary(0) != 0 {
		t.Fatal("strip 35 is not an unreplicated interior strip of server 0's second run")
	}
	fresh := bytes.Repeat([]byte{0x40}, testStrip)

	// server0 runs the offload, with the foreign write issued at writeAt
	// (never, when negative), and returns server 0's second prefetch and
	// the second run's first compute, and when the write was issued and
	// acknowledged.
	server0 := func(writeAt sim.Time) (rig *testRig, read, compute trace.Event, sent, acked sim.Time) {
		rig = newRigOn(t, cfg, lay, testW, h, testStrip)
		rig.createOut(t, "out")
		rec := trace.New(0)
		rig.clu.Trace = rec
		if writeAt >= 0 {
			rig.clu.Eng.Spawn("foreign-write", func(p *sim.Proc) {
				p.Sleep(writeAt - p.Now())
				sent = p.Now()
				if err := rig.fs.WriteStripTo(p, rig.clu.ComputeID(1), 0, "in", victim, fresh, true); err != nil {
					t.Error(err)
				}
				acked = p.Now()
			})
		}
		rig.run(t, func(p *sim.Proc) error {
			_, err := NewClient(rig.fs, rig.clu.ComputeID(0)).Exec(p, "flow-routing", "in", "out", LocalOnly)
			return err
		})
		var reads, computes []trace.Event
		for _, e := range rec.Events() {
			switch {
			case e.Actor == "server-0/read":
				reads = append(reads, e)
			case e.Actor == "server-0/compute" && e.Phase == "compute":
				computes = append(computes, e)
			}
		}
		// Each run computes in two parts, its replicated edge strips
		// first and its interior after (Stages.Parts).
		if len(reads) != 4 || len(computes) != 8 {
			t.Fatalf("server 0 recorded %d reads and %d computes, want 4 runs of two parts", len(reads), len(computes))
		}
		return rig, reads[1], computes[2], sent, acked
	}

	_, read, compute, _, _ := server0(-1)
	if compute.At-(read.At+read.Dur) < sim.Millisecond {
		t.Fatalf("the second band waits only %v for its compute: no room for a write", compute.At-(read.At+read.Dur))
	}
	rig, read, compute, sent, acked := server0(read.At + read.Dur + 100*sim.Microsecond)
	if sent < read.At+read.Dur || acked > compute.At {
		t.Fatalf("the write [%v, %v] missed the window between prefetch end %v and compute start %v",
			sent, acked, read.At+read.Dur, compute.At)
	}
	if got := rig.fetch(t, "out"); !got.Equal(kernels.Apply(kernels.FlowRouting{}, rig.g)) {
		t.Error("the exec did not compute on the bytes its prefetched band was lent")
	}
	var stored []byte
	rig.run(t, func(p *sim.Proc) (err error) {
		stored, err = rig.fs.Server(0).LocalRead(p, "in", victim, 0, 0)
		return err
	})
	if !bytes.Equal(stored, fresh) {
		t.Error("the foreign write did not replace the strip")
	}
}

// released is a WalkRuns operand that counts its releases.
type released struct{ count *int }

func (r released) Release() { *r.count++ }

// TestWalkReleasesWhatNeverComputes: a failed write stops the walk with the
// next run's operands assembled and waiting. That run never computes, so
// the walk itself releases them — once — before it returns the write's
// error. A pipeline round's operands are lent bands with nothing pooled,
// so no audit would see them kept: the count is the check.
func TestWalkReleasesWhatNeverComputes(t *testing.T) {
	eng := sim.NewEngine()
	runs := []StripRun{{First: 0, Last: 0}, {First: 1, Last: 1}, {First: 2, Last: 2}, {First: 3, Last: 3}}
	failed := errors.New("write failed")
	var assembled, computed, count int
	var err error
	eng.Spawn("walk", func(p *sim.Proc) {
		err = WalkRuns(p, runs,
			func(a *sim.Proc, run StripRun) (released, error) {
				assembled++
				return released{&count}, nil
			},
			func(run StripRun, ops released) func(*sim.Proc) error {
				computed++
				ops.Release()
				p.Sleep(sim.Millisecond)
				return func(w *sim.Proc) error {
					w.Sleep(sim.Microsecond)
					if run.First == 0 {
						return failed
					}
					return nil
				}
			}, nil)
	})
	if rerr := eng.Run(); rerr != nil {
		t.Fatal(rerr)
	}
	if !errors.Is(err, failed) {
		t.Fatalf("walk returned %v, want the write's error", err)
	}
	if computed != 2 || assembled != 3 {
		t.Fatalf("%d runs assembled and %d computed, want 3 and 2: no run was left prefetched", assembled, computed)
	}
	if count != assembled {
		t.Errorf("%d of %d assembled operands released", count, assembled)
	}
}
