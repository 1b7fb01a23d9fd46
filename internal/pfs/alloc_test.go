package pfs

import (
	"runtime"
	"testing"

	"github.com/hpcio/das/internal/cluster"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/sim"
)

// TestClientReadAllocs is the alloc-regression guard for the client read
// hot path. A ReadInto that copied each strip out of the store on the
// server side would cost allocations proportional to strips × iterations.
// Responses carry windows of the stored strips instead, so the per-
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

	dst := make([]byte, size)
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
	readOnce() // warm the engine's pools

	allocs := testing.AllocsPerRun(20, readOnce)

	// One read spawns 1 + servers processes (goroutine, Proc, channel,
	// name) and a signal each, plus batch maps/slices: ~2 dozen small
	// allocations on this 4-server geometry. A copying path adds ≥ 1
	// allocation per strip (64 strips → ≥ 64 more); 60 is comfortably
	// above engine bookkeeping noise and below any per-strip regime.
	const maxAllocs = 60
	if allocs > maxAllocs {
		t.Errorf("client read path: %.0f allocs/op, want ≤ %d (a read must not allocate per strip)", allocs, maxAllocs)
	}
	t.Logf("client read path: %.1f allocs/op over %d strips", allocs, strips)
}

// TestUnalignedWriteReleasesItsStrip guards the client's read-modify-write
// path: the strip it reads is lent, so the modification goes into one
// copy of the client's making, which the primary then keeps as it is.
// A second strip-sized allocation per write means the strip is being
// copied twice on its way in.
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
	writeSome() // warm the engine's pools

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	writeSome()
	runtime.ReadMemStats(&after)
	perWrite := (after.TotalAlloc - before.TotalAlloc) / writes
	if perWrite >= 3*stripSize/2 {
		t.Errorf("unaligned write allocates %d bytes per operation, want about one %d-byte strip (the modified copy is copied again on entry)", perWrite, stripSize)
	}
	t.Logf("unaligned write: %d bytes/op", perWrite)
}
