package pfs

import (
	"bytes"
	"testing"
	"testing/quick"

	"github.com/hpcio/das/internal/cluster"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/sim"
)

// TestPartialWriteReadModifyWrite covers the unaligned write path.
func TestPartialWriteReadModifyWrite(t *testing.T) {
	clu, fs := testFS(t)
	data := pattern(4 * 64)
	if _, err := fs.Create("f", 4*64, layout.NewGroupedReplicated(4, 2, 1), CreateOptions{StripSize: 64}); err != nil {
		t.Fatal(err)
	}
	run(t, clu, func(p *sim.Proc) {
		c := fs.NewClient(clu.ComputeID(0))
		if err := c.WriteAll(p, "f", data); err != nil {
			t.Fatal(err)
		}
		// Overwrite an unaligned range spanning three strips.
		patch := bytes.Repeat([]byte{0xAB}, 140)
		if err := c.Write(p, "f", 30, patch); err != nil {
			t.Fatal(err)
		}
		copy(data[30:], patch)
		got, err := c.ReadAll(p, "f")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Error("partial write corrupted file")
		}
		// Replicas must have been refreshed too: read the replica copy of
		// a touched boundary strip directly.
		m, _ := fs.Meta("f")
		for s := int64(0); s < m.Strips(); s++ {
			for hs, i := m.Layout.Holders(s), 0; i < hs.Len(); i++ {
				holder := hs.At(i)
				lo, hi := m.StripBounds(s)
				copyData, err := fs.Server(holder).LocalRead(p, "f", s, 0, 0)
				if err != nil {
					t.Fatalf("holder %d strip %d: %v", holder, s, err)
				}
				if !bytes.Equal(copyData, data[lo:hi]) {
					t.Errorf("holder %d has stale strip %d", holder, s)
				}
			}
		}
		// Bounds checks.
		if err := c.Write(p, "f", -1, patch); err == nil {
			t.Error("negative offset accepted")
		}
		if err := c.Write(p, "f", 4*64-10, patch); err == nil {
			t.Error("overflowing write accepted")
		}
		if err := c.Write(p, "f", 10, nil); err != nil {
			t.Errorf("empty write: %v", err)
		}
	})
}

// TestModelBasedOperations drives the PFS with random operation sequences
// and checks every read against a flat byte-slice reference model. The
// file is also migrated between layouts mid-sequence: contents must be
// invariant under reconfiguration.
func TestModelBasedOperations(t *testing.T) {
	type op struct {
		Kind uint8  // 0 = write, 1 = read, 2 = reconfigure
		Off  uint16 // scaled into range
		Len  uint8
		Fill byte
	}
	const fileSize = 16 * 64
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
		cfg := cluster.Default()
		cfg.ComputeNodes, cfg.StorageNodes = 2, 4
		clu, err := cluster.New(cfg)
		if err != nil {
			return false
		}
		fs := New(clu)
		if _, err := fs.Create("f", fileSize, layouts[0], CreateOptions{StripSize: 64}); err != nil {
			return false
		}
		model := make([]byte, fileSize)
		okAll := true
		clu.Eng.Spawn("driver", func(p *sim.Proc) {
			c := fs.NewClient(clu.ComputeID(0))
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
					if err := c.Reconfigure(p, "f", layouts[layoutIdx]); err != nil {
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
		if err := clu.Eng.Run(); err != nil {
			return false
		}
		clu.Eng.Shutdown()
		return okAll
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestReconfigureCycleReturnsToStart migrates a file through every layout
// and back, verifying placement converges to exactly the final layout's
// holder sets (no stale copies accumulate).
func TestReconfigureCycleReturnsToStart(t *testing.T) {
	clu, fs := testFS(t)
	data := pattern(16 * 64)
	start := layout.NewRoundRobin(4)
	if _, err := fs.Create("f", 16*64, start, CreateOptions{StripSize: 64}); err != nil {
		t.Fatal(err)
	}
	cycle := []layout.Layout{
		layout.NewGroupedReplicated(4, 4, 1),
		layout.NewGrouped(4, 2),
		layout.NewGroupedReplicated(4, 2, 2),
		start,
	}
	run(t, clu, func(p *sim.Proc) {
		c := fs.NewClient(clu.ComputeID(0))
		if err := c.WriteAll(p, "f", data); err != nil {
			t.Fatal(err)
		}
		for _, lay := range cycle {
			if err := c.Reconfigure(p, "f", lay); err != nil {
				t.Fatalf("reconfigure to %s: %v", lay.Name(), err)
			}
		}
		got, err := c.ReadAll(p, "f")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Error("content changed over reconfiguration cycle")
		}
	})
	for s := int64(0); s < 16; s++ {
		for srv := 0; srv < 4; srv++ {
			want := start.Holders(s).Has(srv)
			if got := fs.Server(srv).Holds("f", s); got != want {
				t.Errorf("strip %d server %d: holds=%v want=%v", s, srv, got, want)
			}
		}
	}
	var stored int64
	for srv := 0; srv < 4; srv++ {
		stored += fs.Server(srv).StoredBytes()
	}
	if stored != 16*64 {
		t.Errorf("stored %d bytes after cycle, want exactly the file size", stored)
	}
}
