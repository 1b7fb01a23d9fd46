package pfs

import (
	"bytes"
	"errors"
	"testing"

	"github.com/hpcio/das/internal/cluster"
	"github.com/hpcio/das/internal/fault"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/sim"
)

// crash downs dense storage server s immediately.
func crash(t *testing.T, clu *cluster.Cluster, s int) {
	t.Helper()
	if err := clu.ApplyFault(fault.Event{Kind: fault.Crash, Server: s}); err != nil {
		t.Fatal(err)
	}
}

// writeHealthy creates the file and writes data before any fault is applied.
func writeHealthy(t *testing.T, clu *cluster.Cluster, fs *FileSystem, lay layout.Layout, data []byte, stripSize int64) {
	t.Helper()
	if _, err := fs.Create("f", int64(len(data)), lay, CreateOptions{StripSize: stripSize}); err != nil {
		t.Fatal(err)
	}
	run(t, clu, func(p *sim.Proc) {
		c := fs.NewClient(clu.ComputeID(0))
		if err := c.WriteAll(p, "f", data); err != nil {
			t.Fatal(err)
		}
	})
}

func TestReadFailsOverToReplica(t *testing.T) {
	clu, fs := testFS(t)
	lay := layout.NewReplicatedRoundRobin(4, 2)
	data := pattern(8 * 64)
	writeHealthy(t, clu, fs, lay, data, 64)

	// Server 2 is primary for strips 2 and 6; their replicas live on 3.
	crash(t, clu, 2)
	run(t, clu, func(p *sim.Proc) {
		c := fs.NewClient(clu.ComputeID(0))
		got, err := c.ReadAll(p, "f")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Error("failover read corrupted data")
		}
	})
	if clu.Counters.Get("recovery.failover_reads") == 0 {
		t.Error("crash of a primary produced no failover reads")
	}
}

func TestReadWithoutReplicasReturnsNoLiveCopy(t *testing.T) {
	clu, fs := testFS(t)
	data := pattern(4 * 64)
	writeHealthy(t, clu, fs, layout.NewRoundRobin(4), data, 64)

	crash(t, clu, 1)
	run(t, clu, func(p *sim.Proc) {
		c := fs.NewClient(clu.ComputeID(0))
		_, err := c.ReadAll(p, "f")
		if err == nil {
			t.Fatal("read of a crashed, unreplicated strip succeeded")
		}
		if !errors.Is(err, ErrNoLiveCopy) {
			t.Errorf("error %v, want ErrNoLiveCopy", err)
		}
		// Strips on live servers are still individually readable.
		got, rerr := c.Read(p, "f", 0, 64)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if !bytes.Equal(got, data[:64]) {
			t.Error("healthy strip corrupted after failed read")
		}
	})
}

func TestReadBridgesPlannedRestart(t *testing.T) {
	clu, fs := testFS(t)
	data := pattern(4 * 64)
	writeHealthy(t, clu, fs, layout.NewRoundRobin(4), data, 64)

	// Crash immediately, restart 50 ms later: inside the failover loop's
	// DownBackoff budget (20+40 ms), so the read should wait it out.
	plan := fault.Plan{Events: []fault.Event{
		{At: 0, Kind: fault.Crash, Server: 1},
		{At: 50 * sim.Millisecond, Kind: fault.Restart, Server: 1},
	}}
	if err := clu.InstallFaultPlan(plan); err != nil {
		t.Fatal(err)
	}
	run(t, clu, func(p *sim.Proc) {
		c := fs.NewClient(clu.ComputeID(0))
		got, err := c.ReadAll(p, "f")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Error("read after restart corrupted data")
		}
	})
	if clu.Counters.Get("recovery.retries") == 0 {
		t.Error("bridging a restart recorded no retries")
	}
}

func TestLossWindowTimesOutThenRecovers(t *testing.T) {
	clu, fs := testFS(t)
	data := pattern(64)
	writeHealthy(t, clu, fs, layout.NewRoundRobin(4), data, 64)

	// Drop every message for 260 ms — past one request timeout (250 ms) —
	// then heal. The first attempt times out, a retry lands after the
	// window closes.
	plan := fault.Plan{Events: []fault.Event{
		{At: 0, Kind: fault.Loss, Server: -1, Frac: 1},
		{At: 260 * sim.Millisecond, Kind: fault.Loss, Server: -1, Frac: 0},
	}}
	if err := clu.InstallFaultPlan(plan); err != nil {
		t.Fatal(err)
	}
	run(t, clu, func(p *sim.Proc) {
		c := fs.NewClient(clu.ComputeID(0))
		got, err := c.ReadAll(p, "f")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Error("read after loss window corrupted data")
		}
	})
	if clu.Counters.Get("recovery.timeouts") == 0 {
		t.Error("total loss window produced no timeouts")
	}
	if clu.Counters.Get("recovery.retries") == 0 {
		t.Error("total loss window produced no retries")
	}
	if clu.Counters.Get("recovery.dropped_messages") == 0 {
		t.Error("total loss window dropped no messages")
	}
}

func TestDelayedMessagesStillDeliver(t *testing.T) {
	healthy := func(delay sim.Time) sim.Time {
		clu, fs := testFS(t)
		data := pattern(4 * 64)
		writeHealthy(t, clu, fs, layout.NewRoundRobin(4), data, 64)
		if delay > 0 {
			if err := clu.ApplyFault(fault.Event{Kind: fault.Loss, Server: -1, Frac: 1, Delay: delay}); err != nil {
				t.Fatal(err)
			}
		}
		start := clu.Eng.Now()
		run(t, clu, func(p *sim.Proc) {
			c := fs.NewClient(clu.ComputeID(0))
			got, err := c.ReadAll(p, "f")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Error("delayed read corrupted data")
			}
		})
		if clu.Counters.Get("recovery.dropped_messages") != 0 {
			t.Error("delayed messages were counted as dropped")
		}
		return clu.Eng.Now() - start
	}
	if fast, slow := healthy(0), healthy(2*sim.Millisecond); slow <= fast {
		t.Errorf("delayed run took %v, healthy %v", slow, fast)
	}
}

func TestLateReplyNeverCrossesCalls(t *testing.T) {
	clu, fs := testFS(t)
	data := pattern(4 * 64)
	writeHealthy(t, clu, fs, layout.NewRoundRobin(4), data, 64)

	// Delay every message past the request timeout: responses always arrive
	// after their caller gave up, parking in abandoned reply mailboxes.
	if err := clu.ApplyFault(fault.Event{Kind: fault.Loss, Server: -1, Frac: 1, Delay: 300 * sim.Millisecond}); err != nil {
		t.Fatal(err)
	}
	run(t, clu, func(p *sim.Proc) {
		if _, err := fs.ReadStripFrom(p, clu.ComputeID(0), 0, "f", 0, 0, 0); err == nil {
			t.Error("read with all replies late succeeded")
		}
	})
	// Heal and read a different strip. If any parked late reply (strip 0
	// data) leaked into a recycled mailbox, this read would return the
	// wrong bytes or a mismatched payload.
	if err := clu.ApplyFault(fault.Event{Kind: fault.Loss, Server: -1, Frac: 0}); err != nil {
		t.Fatal(err)
	}
	run(t, clu, func(p *sim.Proc) {
		got, err := fs.ReadStripFrom(p, clu.ComputeID(0), 1, "f", 1, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data[64:128]) {
			t.Error("late reply crossed into a later call")
		}
	})
}

func TestWriteSkipsDownReplicaTarget(t *testing.T) {
	clu, fs := testFS(t)
	lay := layout.NewReplicatedRoundRobin(4, 2)
	data := pattern(64) // one strip: primary 0, replica 1
	if _, err := fs.Create("f", 64, lay, CreateOptions{StripSize: 64}); err != nil {
		t.Fatal(err)
	}
	crash(t, clu, 1)
	run(t, clu, func(p *sim.Proc) {
		c := fs.NewClient(clu.ComputeID(0))
		if err := c.WriteAll(p, "f", data); err != nil {
			t.Fatal(err)
		}
		got, err := c.ReadAll(p, "f")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Error("write with down replica corrupted data")
		}
	})
	if clu.Counters.Get("recovery.skipped_forwards") == 0 {
		t.Error("down replica target was not skipped")
	}
}

// TestForwardSendsEveryHolderItsCopyAtOnce: a forwarding write owed to two
// other holders sends both copies at once — each holder's receive, from
// the copy's arrival to the end of its disk write, overlaps the other's,
// where a primary waiting for one acknowledgement before sending the next
// copy would start the second receive only after the first ends — and a
// holder that is down is skipped while the other still gets its copy.
func TestForwardSendsEveryHolderItsCopyAtOnce(t *testing.T) {
	for _, down := range []bool{false, true} {
		clu, fs := testFS(t)
		lay := layout.NewReplicatedRoundRobin(4, 3)
		if _, err := fs.Create("f", 64, lay, CreateOptions{StripSize: 64}); err != nil {
			t.Fatal(err)
		}
		a, b := lay.Holders(0).At(1), lay.Holders(0).At(2) // the primary's two other holders
		if down {
			crash(t, clu, a)
		}
		arrived := map[int]sim.Time{}
		written := false
		clu.Eng.Spawn("watch", func(p *sim.Proc) {
			for !written {
				for _, h := range []int{a, b} {
					if _, seen := arrived[h]; !seen && fs.Server(h).Holds("f", 0) {
						arrived[h] = p.Now()
					}
				}
				p.Sleep(sim.Microsecond)
			}
		})
		run(t, clu, func(p *sim.Proc) {
			err := fs.NewClient(clu.ComputeID(0)).WriteAll(p, "f", pattern(64))
			written = true
			if err != nil {
				t.Error(err)
			}
		})
		want := int64(0)
		if down {
			want = 1
		}
		if got := clu.Counters.Get("recovery.skipped_forwards"); got != want {
			t.Errorf("down=%v: %d skipped forwards, want %d", down, got, want)
		}
		ta, gotA := arrived[a]
		tb, gotB := arrived[b]
		if gotA == down || !gotB {
			t.Fatalf("down=%v: holder %d stored a copy: %v, holder %d: %v", down, a, gotA, b, gotB)
		}
		if down {
			continue
		}
		wa, wb := clu.Disk(fs.Server(a).nodeID).BusyTime(), clu.Disk(fs.Server(b).nodeID).BusyTime()
		if tb >= ta+wa || ta >= tb+wb {
			t.Errorf("holder %d received [%v, %v] and holder %d [%v, %v]: no overlap", a, ta, ta+wa, b, tb, tb+wb)
		}
	}
}

func TestWriteToDownPrimaryFails(t *testing.T) {
	clu, fs := testFS(t)
	data := pattern(4 * 64)
	if _, err := fs.Create("f", 4*64, layout.NewRoundRobin(4), CreateOptions{StripSize: 64}); err != nil {
		t.Fatal(err)
	}
	crash(t, clu, 0)
	run(t, clu, func(p *sim.Proc) {
		c := fs.NewClient(clu.ComputeID(0))
		err := c.WriteAll(p, "f", data)
		if err == nil {
			t.Fatal("write to a crashed primary succeeded")
		}
		if !errors.Is(err, ErrServerDown) {
			t.Errorf("error %v, want ErrServerDown", err)
		}
	})
}

// callerCrashes installs a plan that slows server 1's disk to a crawl at
// once, so a request it serves is still out when storage node 0 — the
// caller — crashes 5 ms later, and restarts downFor after that when
// downFor > 0. It returns the crash time.
func callerCrashes(t *testing.T, clu *cluster.Cluster, downFor sim.Time) sim.Time {
	t.Helper()
	const crashAt = 5 * sim.Millisecond
	events := []fault.Event{
		{At: 0, Kind: fault.SlowDisk, Server: 1, Factor: 0.001},
		{At: crashAt, Kind: fault.Crash, Server: 0},
	}
	if downFor > 0 {
		events = append(events, fault.Event{At: crashAt + downFor, Kind: fault.Restart, Server: 0})
	}
	now := clu.Eng.Now()
	if err := clu.InstallFaultPlan(fault.Plan{Events: events}); err != nil {
		t.Fatal(err)
	}
	return now + crashAt
}

// wantCallerDown checks that a call whose caller crashed at crashedAt gave
// up within one quantum with ErrCallerDown, re-sending nothing and timing
// nothing out.
func wantCallerDown(t *testing.T, clu *cluster.Cluster, fs *FileSystem, err error, crashedAt, returnedAt sim.Time) {
	t.Helper()
	if !errors.Is(err, ErrCallerDown) {
		t.Errorf("error %v, want ErrCallerDown", err)
	}
	if late := returnedAt - crashedAt; late < 0 || late > PollQuantum {
		t.Errorf("the call returned %v after its caller crashed, want within one quantum (%v)", late, PollQuantum)
	}
	for _, c := range []string{"recovery.retries", "recovery.timeouts", "recovery.failover_reads"} {
		if n := clu.Counters.Get(c); n != 0 {
			t.Errorf("%s = %d, want 0: a dead caller's request is neither re-sent nor failed over", c, n)
		}
	}
}

// TestCallerCrashMidCallReturnsWithinAQuantum reads from a live server on
// behalf of a storage node that crashes while the read is out. The reply
// can no longer reach it, so the call gives up at the next quantum rather
// than waiting out the timeout, re-sending from a down node and failing
// over to holders nothing will read from.
func TestCallerCrashMidCallReturnsWithinAQuantum(t *testing.T) {
	clu, fs := testFS(t)
	writeHealthy(t, clu, fs, layout.NewRoundRobin(4), pattern(4*64<<10), 64<<10)
	crashedAt := callerCrashes(t, clu, 0)
	run(t, clu, func(p *sim.Proc) {
		_, err := fs.ReadStripFrom(p, clu.StorageID(0), 1, "f", 1, 0, 0)
		wantCallerDown(t, clu, fs, err, crashedAt, p.Now())
	})
	// The server still answers the request it got; the answer is dropped.
	if err := clu.Net.CheckReplies(); err != nil {
		t.Error(err)
	}
}

// TestCallerCrashRestartDoesNotResendTheWrite writes to a live server on
// behalf of a storage node that crashes while the write is out and is
// back half a quantum later, so only its incarnation tells at the next
// poll. The acknowledgement belongs to the old incarnation; the new one
// must not take it, nor re-send a write nobody is waiting for, so the call
// gives up at that poll and callWrite's down-window loop passes the error
// through.
func TestCallerCrashRestartDoesNotResendTheWrite(t *testing.T) {
	clu, fs := testFS(t)
	if _, err := fs.Create("f", 4*16<<10, layout.NewRoundRobin(4), CreateOptions{StripSize: 16 << 10}); err != nil {
		t.Fatal(err)
	}
	crashedAt := callerCrashes(t, clu, PollQuantum/2)
	run(t, clu, func(p *sim.Proc) {
		err := fs.WriteStripTo(p, clu.StorageID(0), 1, "f", 1, pattern(16<<10), false)
		wantCallerDown(t, clu, fs, err, crashedAt, p.Now())
	})
	// The server still answers the request it got; the answer is dropped.
	if err := clu.Net.CheckReplies(); err != nil {
		t.Error(err)
	}
}

// TestCallerCrashDuringBackoffSendsNothingMore aims a read and a write from
// storage node 0 at server 1 while server 1 is down. Read failover and
// callWrite's down-window loop each back off to wait for it; during that
// sleep the caller crashes and restarts, and server 1 comes back. The
// loop's next attempt belongs to the dead incarnation, so it must return
// ErrCallerDown at the end of the sleep instead of reaching server 1.
func TestCallerCrashDuringBackoffSendsNothingMore(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   func(p *sim.Proc, clu *cluster.Cluster, fs *FileSystem) error
	}{
		{"read failover", func(p *sim.Proc, clu *cluster.Cluster, fs *FileSystem) error {
			_, err := fs.ReadStripFrom(p, clu.StorageID(0), 1, "f", 1, 0, 0)
			return err
		}},
		{"write down-window", func(p *sim.Proc, clu *cluster.Cluster, fs *FileSystem) error {
			return fs.WriteStripTo(p, clu.StorageID(0), 1, "f", 1, pattern(64), false)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clu, fs := testFS(t)
			writeHealthy(t, clu, fs, layout.NewRoundRobin(4), pattern(4*64), 64)
			// All inside the first backoff, which ends DownBackoff after the
			// first attempt fails at once against the down server.
			if err := clu.InstallFaultPlan(fault.Plan{Events: []fault.Event{
				{At: 0, Kind: fault.Crash, Server: 1},
				{At: 5 * sim.Millisecond, Kind: fault.Crash, Server: 0},
				{At: 10 * sim.Millisecond, Kind: fault.Restart, Server: 0},
				{At: 15 * sim.Millisecond, Kind: fault.Restart, Server: 1},
			}}); err != nil {
				t.Fatal(err)
			}
			start, served := clu.Eng.Now(), fs.Server(1).Requests()
			run(t, clu, func(p *sim.Proc) {
				err := tc.op(p, clu, fs)
				if !errors.Is(err, ErrCallerDown) {
					t.Errorf("error %v, want ErrCallerDown", err)
				}
				if took := p.Now() - start; took != DownBackoff {
					t.Errorf("returned after %v, want at the end of the first backoff (%v)", took, DownBackoff)
				}
			})
			if n := fs.Server(1).Requests() - served; n != 0 {
				t.Errorf("server 1 received %d requests from the dead incarnation", n)
			}
			if n := clu.Counters.Get("recovery.failover_reads"); n != 0 {
				t.Errorf("recovery.failover_reads = %d, want 0", n)
			}
		})
	}
}

func TestFaultPlanTimingIsDeterministic(t *testing.T) {
	elapsed := func() (sim.Time, int64, string) {
		clu, fs := testFS(t)
		data := pattern(16 * 64)
		writeHealthy(t, clu, fs, layout.NewReplicatedRoundRobin(4, 2), data, 64)
		plan := fault.Plan{Seed: 7, Events: []fault.Event{
			{At: 0, Kind: fault.Loss, Server: -1, Frac: 0.2},
			{At: 10 * sim.Millisecond, Kind: fault.Crash, Server: 3},
		}}
		if err := clu.InstallFaultPlan(plan); err != nil {
			t.Fatal(err)
		}
		var errStr string
		start := clu.Eng.Now()
		run(t, clu, func(p *sim.Proc) {
			c := fs.NewClient(clu.ComputeID(0))
			if _, err := c.ReadAll(p, "f"); err != nil {
				errStr = err.Error()
			}
		})
		return clu.Eng.Now() - start, clu.Counters.Get("recovery.dropped_messages"), errStr
	}
	t1, d1, e1 := elapsed()
	t2, d2, e2 := elapsed()
	if t1 != t2 || d1 != d2 || e1 != e2 {
		t.Errorf("nondeterministic faulted run: (%v,%d,%q) vs (%v,%d,%q)", t1, d1, e1, t2, d2, e2)
	}
}

// TestFaultActivationMidFlight activates the fault layer while read RPCs
// are in flight — nothing else: no crash, no loss, no degradation — so
// the run must simulate exactly as when the layer is active from t = 0.
// The expected event count and clock were recorded from the
// process-per-step construction this package and simnet used to carry
// (commit acc2a8c, classic dispatch), which gave 1289 events for every
// activation time; that commit's default engine gave 1290–1291, because a
// response launched from a request chain after activation fell back to a
// spawned process neither pure construction has.
func TestFaultActivationMidFlight(t *testing.T) {
	const (
		strips, stripSize = 64, 4096
		wantEvents        = 1289
		wantClock         = 29571669 * sim.Nanosecond
	)
	activations := []sim.Time{
		0, 100 * sim.Microsecond, 300 * sim.Microsecond, sim.Millisecond, 1500 * sim.Microsecond,
		3 * sim.Millisecond, 3100 * sim.Microsecond, 3217 * sim.Microsecond, 20 * sim.Millisecond,
	}
	for _, at := range activations {
		clu, fs := testFS(t)
		lay := layout.NewRoundRobin(4)
		if _, err := fs.Create("f", strips*stripSize, lay, CreateOptions{StripSize: stripSize}); err != nil {
			t.Fatal(err)
		}
		data := pattern(stripSize)
		for s := int64(0); s < strips; s++ {
			fs.Server(lay.Primary(s)).Preload("f", s, data)
		}
		for c := 0; c < 2; c++ {
			node := clu.ComputeID(c)
			clu.Eng.Spawn("reader", func(p *sim.Proc) {
				for s := int64(0); s < strips; s++ {
					got, err := fs.ReadStripFrom(p, node, lay.Primary(s), "f", s, 0, 0)
					if err != nil {
						t.Error(err)
						return
					}
					if !bytes.Equal(got, data) {
						t.Errorf("activation at %v: strip %d corrupted", at, s)
					}
				}
			})
		}
		clu.Eng.AfterFunc(at, clu.Faults.MarkActive)
		if err := clu.Eng.Run(); err != nil {
			t.Fatal(err)
		}
		if ev, now := clu.Eng.Events(), clu.Eng.Now(); ev != wantEvents || now != wantClock {
			t.Errorf("activation at %v: %d events, clock %v; want %d, %v", at, ev, now, wantEvents, wantClock)
		}
		clu.Eng.Shutdown()
	}
}
