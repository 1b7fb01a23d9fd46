package pipeline

import (
	"slices"
	"testing"

	"github.com/hpcio/das/internal/active"
	"github.com/hpcio/das/internal/cluster"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/pfs"
	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/simnet"
)

// newQuickRig is a platform at the pipeline experiment's reduced scale
// (experiments.Quick()): four storage servers and a 2 paper-GB terrain
// 8192 wide, one 64 KiB strip a row, placed by lay.
func newQuickRig(t *testing.T, lay layout.Layout) *testRig {
	t.Helper()
	return newRigOn(t, cluster.Default(), lay, 8192, 32, 64<<10, func(fs *pfs.FileSystem) *Service {
		return Deploy(fs, kernels.Default(), nil, nil)
	})
}

// ackWatch is what the ack port of a rig's client node was seen to hold:
// when each strip's ack was first there, and the token of every run that
// held the port open, in order.
type ackWatch struct {
	at     map[int64]sim.Time
	tokens []string
}

// watchAcks watches the ack port of the rig's client node, polling every
// 10 µs on daemon timers, which hold no run open and move nothing on the
// clock.
func (r *testRig) watchAcks() *ackWatch {
	w := &ackWatch{at: make(map[int64]sim.Time)}
	port := r.svc.acks[r.clu.ComputeID(0)]
	var poll func()
	poll = func() {
		for token, acked := range port.runs {
			if !slices.Contains(w.tokens, token) {
				w.tokens = append(w.tokens, token)
			}
			for s := range acked {
				if _, ok := w.at[s]; !ok {
					w.at[s] = r.clu.Eng.Now()
				}
			}
		}
		r.clu.Eng.AfterFuncDaemon(10*sim.Microsecond, poll)
	}
	poll()
	return w
}

// serverRuns returns the runs of input strips whose primary is srv: what a
// healthy final round stores there, one ack each.
func (r *testRig) serverRuns(srv int) []active.StripRun {
	in, _ := r.fs.Meta("in")
	var strips []int64
	for s := int64(0); s < in.Strips(); s++ {
		if in.Layout.Primary(s) == srv {
			strips = append(strips, s)
		}
	}
	return active.StripRuns(in, strips)
}

// stripCount is how many strips the runs hold.
func stripCount(runs []active.StripRun) int64 {
	var n int64
	for _, run := range runs {
		n += run.Last - run.First + 1
	}
	return n
}

// ackedAt is when the last of a run's strips was seen acked.
func ackedAt(t *testing.T, seen *ackWatch, run active.StripRun) sim.Time {
	t.Helper()
	var at sim.Time
	for s := run.First; s <= run.Last; s++ {
		got, ok := seen.at[s]
		if !ok {
			t.Fatalf("strip %d was never acked", s)
		}
		at = max(at, got)
	}
	return at
}

// wantAckedBefore checks that the strips of server 1 seen acked before the
// crash at crashAt are exactly those of its first k runs.
func wantAckedBefore(t *testing.T, seen *ackWatch, runs []active.StripRun, k int, crashAt sim.Time) {
	t.Helper()
	for i, run := range runs {
		for s := run.First; s <= run.Last; s++ {
			at, ok := seen.at[s]
			if before := ok && at < crashAt; before != (i < k) {
				t.Errorf("strip %d of server 1's run %d: acked before the crash %v, want %v", s, i+1, before, i < k)
			}
		}
	}
}

// TestCrashAfterAnAckRedoesOnlyTheUnacked crashes server 1 for good in the
// mirrored terrain chain's single round, between the acks of its second
// and third runs. The two acked runs are stored on every holder and their
// partials came with the acks, so only the other runs' strips are caught
// up; the output and the reduce are the reference's and every output
// strip is on its live primary.
func TestCrashAfterAnAckRedoesOnlyTheUnacked(t *testing.T) {
	audited(t)
	lay := layout.NewGroupedReplicated(4, 2, 2)
	d := terrain4()
	const k = 2
	healthy := newQuickRig(t, lay)
	seen := healthy.watchAcks()
	healthy.crashRun(t, d, "out", 100*sim.Second, 0) // never within the run
	healthy.clu.Eng.Shutdown()
	runs := healthy.serverRuns(1)
	if len(runs) <= k {
		t.Fatalf("server 1 stores %d runs, want more than %d", len(runs), k)
	}
	crashAt := (ackedAt(t, seen, runs[k-1]) + ackedAt(t, seen, runs[k])) / 2

	rig := newQuickRig(t, lay)
	defer rig.clu.Eng.Shutdown()
	seen = rig.watchAcks()
	c := rig.crashRun(t, d, "out", crashAt, 0)
	wantAckedBefore(t, seen, runs, k, crashAt)
	if want := stripCount(runs) - stripCount(runs[:k]); c.res.CatchUps != want {
		t.Errorf("caught up %d strips, want server 1's %d less the %d acked: %d",
			c.res.CatchUps, stripCount(runs), stripCount(runs[:k]), want)
	}
	wantReference(t, rig, d, "out", c.res)
}

// TestRunCrashedMidForwardIsRedone crashes server 1 for good after its
// second run's local write has returned and while that run's copies are
// on their way to the run's other holders. Their acknowledgements cannot
// reach a crashed server, so the run is not acked: its strips are caught
// up with every later run's, and only the first run is taken from its ack.
func TestRunCrashedMidForwardIsRedone(t *testing.T) {
	audited(t)
	lay := layout.NewGroupedReplicated(4, 2, 2)
	d := terrain4()
	const k = 2
	healthy := newQuickRig(t, lay)
	seen := healthy.watchAcks()
	h := healthy.crashRun(t, d, "out", 100*sim.Second, 0)
	healthy.clu.Eng.Shutdown()
	runs := healthy.serverRuns(1)
	var writes []sim.Time // when each of server 1's output writes returned
	for _, e := range h.rec.Events() {
		if e.Actor == "server-1/write" && e.Phase == "write" {
			writes = append(writes, e.At+e.Dur)
		}
	}
	if len(writes) != len(runs) || len(runs) <= k {
		t.Fatalf("server 1 wrote %d times for %d runs, want one a run and more than %d", len(writes), len(runs), k)
	}
	// An ack leaves once the forwards are acknowledged and takes at least
	// the wire latency to arrive: the crash lands between the write and
	// that.
	wrote, acked := writes[k-1], ackedAt(t, seen, runs[k-1])
	if acked-wrote < 4*healthy.clu.Cfg.Net.Latency {
		t.Fatalf("run %d was written at %v and acked at %v: no room to crash between them", k, wrote, acked)
	}
	crashAt := (wrote + acked) / 2

	rig := newQuickRig(t, lay)
	defer rig.clu.Eng.Shutdown()
	seen = rig.watchAcks()
	c := rig.crashRun(t, d, "out", crashAt, 0)
	wantAckedBefore(t, seen, runs, k-1, crashAt)
	if want := stripCount(runs) - stripCount(runs[:k-1]); c.res.CatchUps != want {
		t.Errorf("caught up %d strips, want server 1's %d less the %d acked: %d",
			c.res.CatchUps, stripCount(runs), stripCount(runs[:k-1]), want)
	}
	wantReference(t, rig, d, "out", c.res)
}

// TestAnEarlierRunsAcksSkipNoStrip runs the chain twice in a row on one
// platform, each from a client of its own as core does, into two output
// files, and crashes server 1 for good in the second run between the acks
// of its first and second runs. Before the crash, an ack of the first run
// arrives for every strip server 1 has yet to ack in the second — as one
// the network held up would (a loss fault with a delay). Tokens are never
// reused on a node, so the second run takes only its own acks: it catches
// up all of server 1's unacked strips, and both outputs are the
// reference's.
func TestAnEarlierRunsAcksSkipNoStrip(t *testing.T) {
	audited(t)
	lay := layout.NewGroupedReplicated(4, 2, 2)
	d := terrain4()
	const k = 1
	var runs []active.StripRun
	twice := func(rig *testRig, crashAt sim.Time) (first, second crashed, seen *ackWatch) {
		seen = rig.watchAcks()
		first = rig.crashRun(t, d, "out1", 100*sim.Second, 0) // never within the run
		clear(seen.at)
		if runs != nil {
			late := ackMsg{Token: seen.tokens[0]}
			for _, run := range runs[k:] {
				for s := run.First; s <= run.Last; s++ {
					late.Strips = append(late.Strips, s)
					late.Partials = append(late.Partials, make([]float64, len(first.res.Reduce)))
				}
			}
			from, to := rig.clu.StorageID(1), rig.clu.ComputeID(0)
			rig.clu.Eng.AfterFunc(sim.Millisecond, func() {
				rig.clu.Net.SendAsync(simnet.Message{From: from, To: to, Port: AckPort, Size: pfs.HeaderBytes,
					Class: rig.clu.ClassBetween(from, to), Payload: late})
			})
		}
		second = rig.crashRun(t, d, "out2", crashAt, 0)
		return first, second, seen
	}
	healthy := newQuickRig(t, lay)
	_, _, seen := twice(healthy, 100*sim.Second)
	healthy.clu.Eng.Shutdown()
	runs = healthy.serverRuns(1)
	crashAt := (ackedAt(t, seen, runs[k-1]) + ackedAt(t, seen, runs[k])) / 2

	rig := newQuickRig(t, lay)
	defer rig.clu.Eng.Shutdown()
	first, second, seen := twice(rig, crashAt)
	if len(seen.tokens) != 2 || seen.tokens[0] == seen.tokens[1] {
		t.Errorf("the two runs held the ack port open under tokens %q, want two distinct", seen.tokens)
	}
	wantAckedBefore(t, seen, runs, k, crashAt)
	if want := stripCount(runs) - stripCount(runs[:k]); second.res.CatchUps != want {
		t.Errorf("the second run caught up %d strips, want server 1's %d less the %d it acked: %d",
			second.res.CatchUps, stripCount(runs), stripCount(runs[:k]), want)
	}
	wantReference(t, rig, d, "out1", first.res)
	wantReference(t, rig, d, "out2", second.res)
}
