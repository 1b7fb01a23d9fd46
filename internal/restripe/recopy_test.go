// Whitebox tests of the copier's retry correctness: discarded attempts
// must never let stale bytes commit, the throttle must never livelock a
// migration, and a stalled byte budget must not hold up zero-byte flips.
// They drive batchFile directly on the DES clock for exact interleavings
// the e2e tests cannot pin down.
package restripe

import (
	"bytes"
	"testing"

	"github.com/hpcio/das/internal/cluster"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/pfs"
	"github.com/hpcio/das/internal/sim"
)

const (
	wbStrip  = int64(1024)
	wbStrips = 16
)

// wbRig deploys 2 compute + 4 storage nodes with file "f" striped
// round-robin and filled with a deterministic pattern, and a migrator
// wired as the pfs invalidation listener (not started: tests drive
// batches by hand).
type wbRig struct {
	clu  *cluster.Cluster
	fs   *pfs.FileSystem
	m    *Migrator
	meta *pfs.FileMeta
	data []byte
}

func newWBRig(t *testing.T, cfg Config) *wbRig {
	t.Helper()
	ccfg := cluster.Default()
	ccfg.ComputeNodes, ccfg.StorageNodes = 2, 4
	clu, err := cluster.New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	fs := pfs.New(clu)
	m, err := NewMigrator(clu, fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs.SetInvalidator(m)
	meta, err := fs.Create("f", wbStrips*wbStrip, layout.NewRoundRobin(4), pfs.CreateOptions{StripSize: wbStrip})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, wbStrips*wbStrip)
	for i := range data {
		data[i] = byte(i*7 + i/997)
	}
	return &wbRig{clu: clu, fs: fs, m: m, meta: meta, data: data}
}

// run executes fn as the workload process and finishes the simulation.
func (r *wbRig) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	r.clu.Eng.Spawn("workload", fn)
	if err := r.clu.Eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// admit ingests the pattern and starts a migration to the grouped target.
func (r *wbRig) admit(t *testing.T, p *sim.Proc) *Migration {
	t.Helper()
	if err := r.fs.NewClient(r.clu.ComputeID(0)).WriteAll(p, "f", r.data); err != nil {
		t.Error(err)
		return nil
	}
	r.m.admit(r.meta, layout.NewGroupedReplicated(4, 4, 1))
	mig := r.m.active["f"]
	if mig == nil {
		t.Error("admit installed no migration")
	}
	return mig
}

func nextPending(mig *Migration) *move {
	for i := mig.cursor; i < len(mig.plan); i++ {
		if !mig.plan[i].done {
			return mig.plan[i]
		}
	}
	return nil
}

// readStrip fetches strip s of "f" from one specific holder.
func (r *wbRig) readStrip(t *testing.T, p *sim.Proc, srv int, s int64) []byte {
	t.Helper()
	got, err := r.fs.ReadStripFrom(p, r.clu.ComputeID(0), srv, "f", s, 0, 0)
	if err != nil {
		t.Errorf("read strip %d from server %d: %v", s, srv, err)
	}
	return got
}

// TestDirtiedCopyReshipsStaleTargets is the regression for the stale
// flip-commit: a foreign write lands after the migrate proc snapshots the
// source strip, so the in-flight copy ships pre-write bytes to the target
// holders. The attempt is discarded as dirty — and the retry must re-ship
// those targets rather than see them Hold and commit the move as a pure
// metadata flip over stale data. The test measures an undisturbed copy's
// duration first, then lands the write deterministically mid-flight in a
// later copy of the same shape.
func TestDirtiedCopyReshipsStaleTargets(t *testing.T) {
	r := newWBRig(t, Config{})
	target := layout.NewGroupedReplicated(4, 4, 1)
	fresh := make([]byte, wbStrip)
	for i := range fresh {
		fresh[i] = byte(255 - i%251)
	}
	raced := int64(-1)
	r.run(t, func(p *sim.Proc) {
		mig := r.admit(t, p)
		if mig == nil {
			return
		}
		durations := make(map[int]sim.Time) // copy duration by target count
		for iter := 0; r.m.ActiveCount() > 0; iter++ {
			if iter > 10*wbStrips {
				t.Errorf("migration did not converge: %v", r.m.Status())
				return
			}
			mv := nextPending(mig)
			if mv == nil {
				t.Error("active migration with no pending move")
				return
			}
			src, targets, _, live := r.m.resolve(mig, mv)
			if !live {
				t.Error("server down in a healthy run")
				return
			}
			k := len(targets)
			if k > 0 && raced < 0 {
				if d, measured := durations[k]; measured {
					// Same shape as the measured copy: the source snapshot
					// (peek) happens near the start of the window, so a write
					// at 3/4 of the duration lands after it — the shipped
					// bytes are stale — and before the outcome is processed —
					// the move is dirtied.
					raced = mv.strip
					srv := r.fs.Server(src)
					p.Spawn("foreign-write", func(w *sim.Proc) {
						w.Sleep(3 * d / 4)
						if err := srv.LocalWrite(w, "f", raced, fresh); err != nil {
							t.Errorf("foreign write: %v", err)
						}
					})
				}
			}
			start := p.Now()
			r.m.batchFile(p, mig, 1)
			if k > 0 {
				if _, measured := durations[k]; !measured {
					durations[k] = p.Now() - start
				}
			}
		}
		if raced < 0 {
			t.Error("no second copy move of a measured shape; nothing was raced")
			return
		}
		if r.m.clu.Counters.Get("restripe.recopies") == 0 {
			t.Error("the foreign write never dirtied the in-flight copy; the race was not constructed")
			return
		}
		if _, ok := r.meta.Layout.(layout.GroupedReplicated); !ok {
			t.Errorf("converged layout is %s, want grouped-replicated", r.meta.Layout.Name())
		}
		// Every target holder must serve the post-write bytes: a stale
		// shipped copy surviving the discarded attempt would fail here.
		for hs, i := target.Holders(raced), 0; i < hs.Len(); i++ {
			h := hs.At(i)
			if got := r.readStrip(t, p, h, raced); !bytes.Equal(got, fresh) {
				t.Errorf("server %d serves stale bytes for raced strip %d", h, raced)
			}
		}
		// And the rest of the file is untouched.
		lo := raced * wbStrip
		copy(r.data[lo:lo+wbStrip], fresh)
		got, err := r.fs.NewClient(r.clu.ComputeID(0)).ReadAll(p, "f")
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, r.data) {
			t.Error("migrated file diverged from the written bytes")
		}
	})
}

// TestOversizedMoveStillMakesProgress is the livelock regression: with an
// in-flight byte budget smaller than any single strip copy, every
// reservation used to fail unconditionally and the migration stalled at
// every tick forever. An idle server must admit the move regardless.
func TestOversizedMoveStillMakesProgress(t *testing.T) {
	r := newWBRig(t, Config{MaxInFlightBytes: 1})
	r.run(t, func(p *sim.Proc) {
		mig := r.admit(t, p)
		if mig == nil {
			return
		}
		for iter := 0; r.m.ActiveCount() > 0; iter++ {
			if iter > 10*wbStrips {
				t.Errorf("oversized moves never converged: %v (stalls=%d)",
					r.m.Status(), r.m.clu.Counters.Get("restripe.throttle_stalls"))
				return
			}
			r.m.batchFile(p, mig, len(mig.plan))
		}
		if r.m.clu.Counters.Get("restripe.throttle_stalls") == 0 {
			t.Error("a 1-byte budget produced no throttle stalls; the throttle was never exercised")
		}
		got, err := r.fs.NewClient(r.clu.ComputeID(0)).ReadAll(p, "f")
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, r.data) {
			t.Error("migrated file diverged from the written bytes")
		}
	})
}

// TestFlipsCommitPastAStalledBudget: when the byte budget refuses a copy,
// later zero-byte flips in the plan need no reservation and must still
// commit in the same batch instead of stalling to future ticks.
func TestFlipsCommitPastAStalledBudget(t *testing.T) {
	r := newWBRig(t, Config{MaxInFlightBytes: 1})
	r.run(t, func(p *sim.Proc) {
		mig := r.admit(t, p)
		if mig == nil {
			return
		}
		// Turn the plan's last copy move into a zero-byte flip: store the
		// current (correct) bytes on each of its target holders, the state a
		// pre-placed halo replica would be in.
		last := mig.plan[len(mig.plan)-1]
		if last.estBytes == 0 {
			t.Error("plan ends with a flip; pick a copy move to convert")
			return
		}
		lo, hi := r.meta.StripBounds(last.strip)
		for hs, i := mig.target.Holders(last.strip), 0; i < hs.Len(); i++ {
			h := hs.At(i)
			if !r.fs.Server(h).Holds("f", last.strip) {
				if err := r.fs.Server(h).LocalWrite(p, "f", last.strip, r.data[lo:hi]); err != nil {
					t.Error(err)
					return
				}
			}
		}
		r.m.batchFile(p, mig, len(mig.plan))
		if r.m.clu.Counters.Get("restripe.throttle_stalls") == 0 {
			t.Error("the 1-byte budget never stalled a copy; the batch did not exercise the scan")
			return
		}
		if !last.done {
			t.Error("zero-byte flip behind a stalled copy did not commit in the same batch")
		}
		copiesPending := false
		for _, mv := range mig.plan {
			if !mv.done && mv.estBytes > 0 {
				copiesPending = true
			}
		}
		if !copiesPending {
			t.Error("every copy committed in one stalled batch; the stall skipped nothing")
		}
		for iter := 0; r.m.ActiveCount() > 0; iter++ {
			if iter > 10*wbStrips {
				t.Errorf("migration did not converge: %v", r.m.Status())
				return
			}
			r.m.batchFile(p, mig, len(mig.plan))
		}
		got, err := r.fs.NewClient(r.clu.ComputeID(0)).ReadAll(p, "f")
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, r.data) {
			t.Error("migrated file diverged from the written bytes")
		}
	})
}
