package pfs

import (
	"runtime"
	"testing"

	"github.com/hpcio/das/internal/cluster"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/sim"
)

// TestClientReadAllocs is the alloc-regression guard for the client read
// hot path. Before the buffer-pool pass, every ReadInto cost one server-
// side copy per strip plus a client-side assembly buffer — allocation
// counts proportional to strips × iterations. With pooling, the per-
// iteration count must stay a small constant (engine bookkeeping: spawned
// processes, signals, batch maps), independent of how many strips move.
func TestClientReadAllocs(t *testing.T) {
	cfg := cluster.Default()
	cfg.ComputeNodes, cfg.StorageNodes = 1, 4
	clu, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer clu.Eng.Shutdown()
	fs := New(clu)

	const stripSize = 4096
	const strips = 64
	const size = stripSize * strips
	if _, err := fs.Create("f", size, layout.NewRoundRobin(4), CreateOptions{StripSize: stripSize}); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i)
	}
	client := fs.NewClient(clu.ComputeID(0))
	clu.Eng.Spawn("seed-write", func(p *sim.Proc) {
		if err := client.WriteAll(p, "f", data); err != nil {
			t.Error(err)
		}
	})
	if err := clu.Eng.Run(); err != nil {
		t.Fatal(err)
	}

	dst := AcquireBuffer(size)
	defer ReleaseBuffer(dst)
	readOnce := func() {
		clu.Eng.Spawn("read", func(p *sim.Proc) {
			if err := client.ReadInto(p, "f", 0, dst); err != nil {
				t.Error(err)
			}
		})
		if err := clu.Eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	readOnce() // warm the pools

	allocs := testing.AllocsPerRun(20, readOnce)

	// One read spawns 1 + servers processes (goroutine, Proc, channel,
	// name) and a signal each, plus batch maps/slices: ~2 dozen small
	// allocations on this 4-server geometry. The unpooled path added ≥ 2
	// allocations per strip (64 strips → ≥ 128 more); 60 is comfortably
	// above engine bookkeeping noise and far below any per-strip regime.
	const maxAllocs = 60
	if allocs > maxAllocs {
		t.Errorf("client read path: %.0f allocs/op, want ≤ %d (per-strip buffers must come from the pool)", allocs, maxAllocs)
	}
	t.Logf("client read path: %.1f allocs/op over %d strips", allocs, strips)
}

// TestUnalignedWriteReleasesItsStrip guards the client's read-modify-write
// path: the strip it reads is a pooled copy, dead once the primary has
// copied the modified bytes in, and must go back to the pool on both
// exits. While it leaked, every unaligned write drew a fresh strip-sized
// buffer (the pool never refilled) on top of the one copy the primary
// makes on entry.
func TestUnalignedWriteReleasesItsStrip(t *testing.T) {
	cfg := cluster.Default()
	cfg.ComputeNodes, cfg.StorageNodes = 1, 4
	clu, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer clu.Eng.Shutdown()
	fs := New(clu)

	const stripSize = 64 * 1024
	const strips = 8
	if _, err := fs.Create("f", stripSize*strips, layout.NewRoundRobin(4), CreateOptions{StripSize: stripSize}); err != nil {
		t.Fatal(err)
	}
	client := fs.NewClient(clu.ComputeID(0))
	chunk := make([]byte, 100)
	const writes = 32
	writeSome := func() {
		clu.Eng.Spawn("rmw", func(p *sim.Proc) {
			for i := int64(0); i < writes; i++ {
				// 100 bytes in the middle of a strip: never aligned.
				if err := client.Write(p, "f", (i%strips)*stripSize+1000, chunk); err != nil {
					t.Error(err)
					return
				}
			}
		})
		if err := clu.Eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	clu.Eng.Spawn("seed-write", func(p *sim.Proc) {
		if err := client.WriteAll(p, "f", make([]byte, stripSize*strips)); err != nil {
			t.Error(err)
		}
	})
	if err := clu.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	writeSome() // warm the pools

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	writeSome()
	runtime.ReadMemStats(&after)
	perWrite := (after.TotalAlloc - before.TotalAlloc) / writes
	// One strip-sized allocation per write is the primary's copy on entry;
	// a second one is the leak.
	if perWrite >= 3*stripSize/2 {
		t.Errorf("unaligned write allocates %d bytes per operation, want about one %d-byte strip (the read-modify-write buffer is not released)", perWrite, stripSize)
	}
	t.Logf("unaligned write: %d bytes/op", perWrite)
}
