package active

import (
	"fmt"
	"testing"

	"github.com/hpcio/das/internal/bufpool"
	"github.com/hpcio/das/internal/cluster"
	"github.com/hpcio/das/internal/fault"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/trace"
)

// firstStores is a strip-mutation listener that keeps, per strip of one
// file, when a copy of it was first stored on any server: a replica
// holder stores a forwarded copy the moment it arrives.
type firstStores struct {
	eng  *sim.Engine
	file string
	at   map[int64]sim.Time
}

func (f *firstStores) InvalidateStrip(file string, strip int64) {
	if _, seen := f.at[strip]; file == f.file && !seen {
		f.at[strip] = f.eng.Now()
	}
}

func (f *firstStores) InvalidateFile(string) {}

// drainRig is a compute-bound platform, every run's compute milliseconds
// long, under GroupedReplicated(4, 16, 2): 16 groups of 16 one-row
// strips, four runs a server, each run's first two and last two strips
// replicated to the neighbouring servers and its twelve others interior.
func drainRig(t *testing.T) *testRig {
	cfg := cluster.Default()
	cfg.ComputeNsPerElem *= 100
	rig := newRigOn(t, cfg, layout.NewGroupedReplicated(4, 16, 2), testW, 256, testStrip)
	rig.createOut(t, "out")
	return rig
}

// drainExec runs a LocalOnly flow-routing offload on rig, traced, and
// returns the trace and when each output strip was first stored.
func drainExec(t *testing.T, rig *testRig) (*trace.Recorder, map[int64]sim.Time) {
	t.Helper()
	rec := trace.New(0)
	rig.clu.Trace = rec
	stores := &firstStores{eng: rig.clu.Eng, file: "out", at: map[int64]sim.Time{}}
	rig.fs.SetInvalidator(stores)
	rig.run(t, func(p *sim.Proc) error {
		_, err := NewClient(rig.fs, rig.clu.ComputeID(0)).Exec(p, "flow-routing", "in", "out", LocalOnly)
		return err
	})
	return rec, stores.at
}

// TestOwedStripsForwardBeforeTheInterior: each run computes its four
// replicated strips first and its twelve interior ones after, over the one
// band (Stages.Parts). The owed part's copies leave when its compute ends,
// so each reaches its replica holder while the interior is still
// computing — not once the whole run has. The run is still written
// locally in one batched pass, and the output is the reference.
func TestOwedStripsForwardBeforeTheInterior(t *testing.T) {
	rig := drainRig(t)
	rec, stored := drainExec(t, rig)
	owedElems := fmt.Sprintf("flow-routing over %d elements", 4*testW)
	interiorElems := fmt.Sprintf("flow-routing over %d elements", 12*testW)
	for s := 0; s < rig.fs.Servers(); s++ {
		srv := rig.fs.Server(s)
		computes, writes := lane(rec, srv, "compute", "compute"), lane(rec, srv, "write", "write")
		if len(computes) != 8 || len(writes) != 4 {
			t.Fatalf("server %d recorded %d computes and %d writes, want two parts and one write for each of 4 runs",
				s, len(computes), len(writes))
		}
		for k := 0; k < 4; k++ {
			owed, interior := computes[2*k], computes[2*k+1]
			if owed.Note != owedElems || interior.Note != interiorElems {
				t.Errorf("server %d run %d computed %q then %q, want its 4 owed strips then its 12 interior ones",
					s, k, owed.Note, interior.Note)
			}
			if w := writes[k].Note; w != "16 output strips of out" {
				t.Errorf("server %d run %d wrote %q, want the whole run in one pass", s, k, w)
			}
			first := int64(s+4*k) * 16
			for _, strip := range []int64{first, first + 1, first + 14, first + 15} {
				at, ok := stored[strip]
				if !ok || at < owed.At+owed.Dur || at >= interior.At+interior.Dur {
					t.Errorf("server %d run %d: strip %d's first copy stored at %v, want within the interior's compute (%v, %v)",
						s, k, strip, at, owed.At+owed.Dur, interior.At+interior.Dur)
				}
			}
		}
	}
	if got := rig.fetch(t, "out"); !got.Equal(kernels.Apply(kernels.FlowRouting{}, rig.g)) {
		t.Error("output differs from the sequential reference")
	}
}

// TestPartsOfAnUnsplitRunAllocateNothing: a run with no owed strip (an
// unreplicated layout's) or nothing but owed strips (a mirrored one's) is
// one part, and Parts says so with nil, allocating nothing: the exec
// computes it over the band it was handed. A run with both kinds is
// split.
func TestPartsOfAnUnsplitRunAllocateNothing(t *testing.T) {
	sixteen := []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	for _, tc := range []struct {
		name   string
		lay    layout.Layout
		strips []int64
		split  bool
	}{
		{"none owed", layout.NewRoundRobin(4), sixteen, false},
		{"all owed", layout.NewGroupedReplicated(4, 4, 4), sixteen[:4], false}, // group 0, mirrored whole
		{"some owed", layout.NewGroupedReplicated(4, 16, 2), sixteen, true},
	} {
		rig := newRig(t, tc.lay, testW, 256, testStrip)
		rig.createOut(t, "out")
		in, _ := rig.fs.Meta("in")
		out, _ := rig.fs.Meta("out")
		st := NewStages(rig.fs, nil, rig.fs.Server(0), in, out, LocalOnly, 0, HaloStrips(in, 0), new(Tally))
		run := StripRuns(in, tc.strips)[0]
		if got := st.Parts(run); (got != nil) != tc.split {
			t.Errorf("%s: Parts(%+v) = %v, want split %v", tc.name, run, got, tc.split)
		}
		if tc.split {
			continue
		}
		if n := testing.AllocsPerRun(20, func() { st.Parts(run) }); n != 0 {
			t.Errorf("%s: Parts allocates %v times on a run of one part, want 0", tc.name, n)
		}
	}
}

// TestCrashBetweenOwedForwardsAndTheInterior crashes server 0, and
// restarts it, in the middle of its second run's interior compute: that
// run's owed copies have left and may have landed, its interior has not
// been computed, and nothing of it is written locally. The crashed
// server's strips are dispatched again, and the output is the reference
// bit for bit, every request answered once, no pooled buffer kept and
// nothing left running.
func TestCrashBetweenOwedForwardsAndTheInterior(t *testing.T) {
	done := bufpool.Audit()
	defer func() {
		if n := done(); n != 0 {
			t.Errorf("%d pooled buffers outstanding", n)
		}
	}()
	healthy := drainRig(t)
	rec, _ := drainExec(t, healthy)
	computes := lane(rec, healthy.fs.Server(0), "compute", "compute")
	if len(computes) != 8 {
		t.Fatalf("server 0 recorded %d computes, want 8", len(computes))
	}
	owed, interior := computes[2], computes[3]
	crashAt := interior.At + interior.Dur/2

	rig := drainRig(t)
	at := crashAt - rig.clu.Eng.Now() // plan times count from the install
	if err := rig.clu.InstallFaultPlan(fault.Plan{Events: []fault.Event{
		{At: at, Kind: fault.Crash, Server: 0},
		{At: at + 5*sim.Millisecond, Kind: fault.Restart, Server: 0},
	}}); err != nil {
		t.Fatal(err)
	}
	rec, _ = drainExec(t, rig)
	crashed := lane(rec, rig.fs.Server(0), "compute", "compute")
	if len(crashed) < 3 || crashed[2].At != owed.At || crashed[2].Dur != owed.Dur {
		t.Fatalf("server 0's second run did not compute its owed part at %v as the healthy run's did", owed.At)
	}
	if got := rig.fetch(t, "out"); !got.Equal(kernels.Apply(kernels.FlowRouting{}, rig.g)) {
		t.Error("crashed run output differs from the sequential reference")
	}
	if rig.clu.Counters.Get("recovery.exec_retries") == 0 {
		t.Error("the crash re-dispatched nothing")
	}
	if err := rig.clu.Net.CheckReplies(); err != nil {
		t.Error(err)
	}
	if live := rig.clu.Eng.Live(); live != 0 {
		t.Errorf("%d processes still live after the run", live)
	}
}
