// Tests of the request-driven drain (Migrator.Migrate), the one path that
// moves a file to a new layout: contents and placement after a move and
// after a cycle of moves, a random write/read/migrate sequence against a
// flat-file model, and a drain that fails against a crashed server and is
// later resumed.
package restripe

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"github.com/hpcio/das/internal/fault"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/pfs"
	"github.com/hpcio/das/internal/sim"
)

// smallStrip is the drain tests' strip size: 16 strips of 64 B.
const smallStrip = int64(64)

// checkHolders fails for every strip and server where what the server
// stores differs from what lay places there.
func checkHolders(t *testing.T, r *wbRig, lay layout.Layout) {
	t.Helper()
	for s := int64(0); s < wbStrips; s++ {
		for srv := 0; srv < 4; srv++ {
			want := lay.Holders(s).Has(srv)
			if got := r.fs.Server(srv).Holds("f", s); got != want {
				t.Errorf("%s: strip %d on server %d: holds=%v want=%v", lay.Name(), s, srv, got, want)
			}
		}
	}
}

func TestReconfigureMigratesAndPreservesContent(t *testing.T) {
	r := newWBRig(t, Config{}, smallStrip)
	target := layout.NewGroupedReplicated(4, 4, 1)
	r.run(t, func(p *sim.Proc) {
		c := r.fs.NewClient(r.clu.ComputeID(0))
		if err := c.WriteAll(p, "f", r.data); err != nil {
			t.Fatal(err)
		}
		if err := r.m.Migrate(p, "f", target); err != nil {
			t.Fatal(err)
		}
		got, err := c.ReadAll(p, "f")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, r.data) {
			t.Error("migration corrupted data")
		}
	})
	if r.meta.Layout.Name() != target.Name() {
		t.Errorf("layout after the drain: %s", r.meta.Layout.Name())
	}
	checkHolders(t, r, target)
	if err := r.m.CheckReleased(); err != nil {
		t.Error(err)
	}
}

// TestReconfigureCycleReturnsToStart migrates a file through every layout
// and back, verifying placement converges to exactly the final layout's
// holder sets (no stale copies accumulate).
func TestReconfigureCycleReturnsToStart(t *testing.T) {
	r := newWBRig(t, Config{}, smallStrip)
	start := layout.NewRoundRobin(4)
	cycle := []layout.Layout{
		layout.NewGroupedReplicated(4, 4, 1),
		layout.NewGrouped(4, 2),
		layout.NewGroupedReplicated(4, 2, 2),
		start,
	}
	r.run(t, func(p *sim.Proc) {
		c := r.fs.NewClient(r.clu.ComputeID(0))
		if err := c.WriteAll(p, "f", r.data); err != nil {
			t.Fatal(err)
		}
		for _, lay := range cycle {
			if err := r.m.Migrate(p, "f", lay); err != nil {
				t.Fatalf("migrate to %s: %v", lay.Name(), err)
			}
		}
		got, err := c.ReadAll(p, "f")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, r.data) {
			t.Error("content changed over the migration cycle")
		}
	})
	checkHolders(t, r, start)
	var stored int64
	for srv := 0; srv < 4; srv++ {
		stored += r.fs.Server(srv).StoredBytes()
	}
	if stored != wbStrips*smallStrip {
		t.Errorf("stored %d bytes after the cycle, want exactly the file size", stored)
	}
}

// TestModelBasedOperations drives the PFS with random operation sequences
// and checks every read against a flat byte-slice reference model. The
// file is also migrated between layouts mid-sequence: contents must be
// invariant under migration.
func TestModelBasedOperations(t *testing.T) {
	type op struct {
		Kind uint8  // 0 = write, 1 = read, 2 = migrate
		Off  uint16 // scaled into range
		Len  uint8
		Fill byte
	}
	const fileSize = wbStrips * smallStrip
	layouts := []layout.Layout{
		layout.NewRoundRobin(4),
		layout.NewGrouped(4, 2),
		layout.NewGroupedReplicated(4, 4, 1),
		layout.NewGroupedReplicated(4, 2, 2),
	}
	prop := func(ops []op) bool {
		if len(ops) > 24 {
			ops = ops[:24]
		}
		r := newWBRig(t, Config{}, smallStrip)
		defer r.clu.Eng.Shutdown()
		model := make([]byte, fileSize)
		okAll := true
		r.clu.Eng.Spawn("driver", func(p *sim.Proc) {
			c := r.fs.NewClient(r.clu.ComputeID(0))
			if err := c.WriteAll(p, "f", model); err != nil {
				okAll = false
				return
			}
			layoutIdx := 0
			for i, o := range ops {
				off := int64(o.Off) % fileSize
				n := int64(o.Len)
				if off+n > fileSize {
					n = fileSize - off
				}
				switch o.Kind % 3 {
				case 0:
					buf := bytes.Repeat([]byte{o.Fill}, int(n))
					if err := c.Write(p, "f", off, buf); err != nil {
						okAll = false
						return
					}
					copy(model[off:], buf)
				case 1:
					got, err := c.Read(p, "f", off, n)
					if err != nil || !bytes.Equal(got, model[off:off+n]) {
						okAll = false
						return
					}
				case 2:
					layoutIdx = (layoutIdx + 1 + i) % len(layouts)
					if err := r.m.Migrate(p, "f", layouts[layoutIdx]); err != nil {
						okAll = false
						return
					}
				}
			}
			got, err := c.ReadAll(p, "f")
			if err != nil || !bytes.Equal(got, model) {
				okAll = false
			}
		})
		if err := r.clu.Eng.Run(); err != nil {
			return false
		}
		return okAll && r.m.CheckReleased() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestDrainWaitsForATickBatch: a request drains a migration whose every
// move a tick's batch already has in flight. The drain has nothing to
// issue; it waits for that batch to land instead of spinning, and the
// migration completes once.
func TestDrainWaitsForATickBatch(t *testing.T) {
	r := newWBRig(t, Config{MovesPerTick: 2 * wbStrips}, wbStrip)
	r.run(t, func(p *sim.Proc) {
		mig := r.admit(t, p)
		if mig == nil {
			return
		}
		r.m.Start()
		defer r.m.Stop()
		for !slices.ContainsFunc(mig.plan, func(mv *move) bool { return mv.inflight }) {
			p.Sleep(sim.Microsecond) // until the tick's batch has its moves out
		}
		if err := r.m.Migrate(p, "f", mig.target); err != nil {
			t.Error(err)
			return
		}
		got, err := r.fs.NewClient(r.clu.ComputeID(0)).ReadAll(p, "f")
		if err != nil || !bytes.Equal(got, r.data) {
			t.Errorf("file after the drain: %v, changed=%v", err, !bytes.Equal(got, r.data))
		}
	})
	if n := r.clu.Counters.Get("restripe.completed"); n != 1 || len(r.m.Status()) != 1 {
		t.Errorf("completed %d times, statuses %v: want one migration completed once", n, r.m.Status())
	}
	checkHolders(t, r, layout.NewGroupedReplicated(4, 4, 1))
	if err := r.m.CheckReleased(); err != nil {
		t.Error(err)
	}
}

// TestFailedDrainLeavesNoStaleCopy migrates round-robin to
// grouped-replicated(D=4,r=4,halo=1) with server 3 crashed for good: the
// drain gives up with ErrServerDown within its retry budget and leaves
// every strip readable where it was. Server 3 restarts, the whole file is
// rewritten, and a second drain to the same target resumes: every holder
// of every strip must serve the rewritten bytes — none a copy the failed
// attempt left behind from before the write.
func TestFailedDrainLeavesNoStaleCopy(t *testing.T) {
	r := newWBRig(t, Config{}, smallStrip)
	target := layout.NewGroupedReplicated(4, 4, 1)
	fresh := make([]byte, len(r.data))
	for i := range fresh {
		fresh[i] = ^r.data[i]
	}
	apply := func(kind fault.Kind) {
		if err := r.clu.ApplyFault(fault.Event{Kind: kind, Server: 3}); err != nil {
			t.Fatal(err)
		}
	}
	r.run(t, func(p *sim.Proc) {
		if err := r.fs.NewClient(r.clu.ComputeID(0)).WriteAll(p, "f", r.data); err != nil {
			t.Fatal(err)
		}
	})
	apply(fault.Crash)
	r.run(t, func(p *sim.Proc) {
		start := p.Now()
		err := r.m.Migrate(p, "f", target)
		if !errors.Is(err, pfs.ErrServerDown) {
			t.Fatalf("drain against a crashed server: %v, want ErrServerDown", err)
		}
		// The drain parks, retries DownRetries times RetryDelay apart and
		// gives up; copying 64-byte strips adds well under a retry delay.
		if bound := sim.Time(pfs.DownRetries+1) * r.m.Config().RetryDelay; p.Now()-start > bound {
			t.Errorf("failed drain took %v, bound %v", p.Now()-start, bound)
		}
		if _, dual := r.meta.Layout.(*layout.Migrating); !dual {
			t.Fatalf("failed drain left layout %s, want the dual layout", r.meta.Layout.Name())
		}
		// Every strip with a live holder reads back unchanged.
		c := r.fs.NewClient(r.clu.ComputeID(0))
		for s := int64(0); s < wbStrips; s++ {
			if holders := r.meta.Layout.Holders(s); holders.Len() == 1 && holders.At(0) == 3 {
				continue
			}
			lo, hi := r.meta.StripBounds(s)
			got, err := c.Read(p, "f", lo, hi-lo)
			if err != nil || !bytes.Equal(got, r.data[lo:hi]) {
				t.Errorf("strip %d after the failed drain: %v, changed=%v", s, err, !bytes.Equal(got, r.data[lo:hi]))
			}
		}
	})
	apply(fault.Restart)
	r.run(t, func(p *sim.Proc) {
		c := r.fs.NewClient(r.clu.ComputeID(0))
		got, err := c.ReadAll(p, "f")
		if err != nil || !bytes.Equal(got, r.data) {
			t.Fatalf("file after the restart: %v, changed=%v", err, !bytes.Equal(got, r.data))
		}
		if err := c.WriteAll(p, "f", fresh); err != nil {
			t.Fatal(err)
		}
		if err := r.m.Migrate(p, "f", target); err != nil {
			t.Fatalf("resumed drain: %v", err)
		}
		stale := 0
		for s := int64(0); s < wbStrips; s++ {
			lo, hi := r.meta.StripBounds(s)
			for hs, i := target.Holders(s), 0; i < hs.Len(); i++ {
				if got := r.readStrip(t, p, hs.At(i), s); !bytes.Equal(got, fresh[lo:hi]) {
					stale++
					t.Errorf("server %d serves stale bytes for strip %d", hs.At(i), s)
				}
			}
		}
		if stale > 0 {
			t.Errorf("%d strip copies stale after the resumed drain", stale)
		}
	})
	checkHolders(t, r, target)
	if err := r.m.CheckReleased(); err != nil {
		t.Error(err)
	}
}
