package pfs

import (
	"bytes"
	"testing"

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
