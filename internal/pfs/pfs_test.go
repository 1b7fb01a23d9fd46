package pfs

import (
	"bytes"
	"testing"

	"github.com/hpcio/das/internal/cluster"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/sim"
)

// testFS builds a small platform: 2 compute, 4 storage, tiny strips so
// placement effects show up with little data.
func testFS(t *testing.T) (*cluster.Cluster, *FileSystem) {
	t.Helper()
	cfg := cluster.Default()
	cfg.ComputeNodes, cfg.StorageNodes = 2, 4
	clu, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return clu, New(clu)
}

func pattern(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*31 + i/257)
	}
	return data
}

// run executes fn as the workload process and finishes the simulation.
func run(t *testing.T, clu *cluster.Cluster, fn func(p *sim.Proc)) {
	t.Helper()
	clu.Eng.Spawn("workload", fn)
	if err := clu.Eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateValidation(t *testing.T) {
	_, fs := testFS(t)
	lay := layout.NewRoundRobin(4)
	if _, err := fs.Create("", 100, lay, CreateOptions{}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := fs.Create("f", 0, lay, CreateOptions{}); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := fs.Create("f", 100, layout.NewRoundRobin(3), CreateOptions{}); err == nil {
		t.Error("mismatched server count accepted")
	}
	if _, err := fs.Create("f", 100, lay, CreateOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("f", 100, lay, CreateOptions{}); err == nil {
		t.Error("duplicate create accepted")
	}
	m, ok := fs.Meta("f")
	if !ok || m.StripSize != DefaultStripSize {
		t.Errorf("meta %+v", m)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	clu, fs := testFS(t)
	lay := layout.NewRoundRobin(4)
	data := pattern(1000)
	if _, err := fs.Create("f", 1000, lay, CreateOptions{StripSize: 256}); err != nil {
		t.Fatal(err)
	}
	run(t, clu, func(p *sim.Proc) {
		c := fs.NewClient(clu.ComputeID(0))
		if err := c.WriteAll(p, "f", data); err != nil {
			t.Error(err)
			return
		}
		got, err := c.ReadAll(p, "f")
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, data) {
			t.Error("round trip corrupted data")
		}
	})
	if clu.Eng.Now() == 0 {
		t.Error("I/O consumed no simulated time")
	}
}

// TestWriteSendsOneRequestPerPrimary: a client write sends the whole
// strips bound for each primary in one request, the way a read fetches
// them, and updates a partial strip read-modify-write (one read and one
// write request); either way the file reads back as written.
func TestWriteSendsOneRequestPerPrimary(t *testing.T) {
	const strip = 256
	clu, fs := testFS(t)
	if _, err := fs.Create("f", 16*strip, layout.NewRoundRobin(4), CreateOptions{StripSize: strip}); err != nil {
		t.Fatal(err)
	}
	c := fs.NewClient(clu.ComputeID(0))
	want := pattern(16 * strip)
	run(t, clu, func(p *sim.Proc) {
		if err := c.WriteAll(p, "f", want); err != nil {
			t.Error(err)
		}
	})
	for _, tc := range []struct {
		name      string
		off, size int64
		requests  [4]uint64 // per server
	}{
		// Strips 2-13, three on each server.
		{"aligned", 2 * strip, 12 * strip, [4]uint64{1, 1, 1, 1}},
		// Strips 2 and 6 (server 2) partial; 3, 4 and 5 whole.
		{"unaligned", 2*strip + 10, 4 * strip, [4]uint64{1, 1, 4, 1}},
	} {
		var before [4]uint64
		for srv := range before {
			before[srv] = fs.Server(srv).Requests()
		}
		patch := bytes.Repeat([]byte{byte(tc.off)}, int(tc.size))
		copy(want[tc.off:], patch)
		run(t, clu, func(p *sim.Proc) {
			if err := c.Write(p, "f", tc.off, patch); err != nil {
				t.Error(err)
			}
		})
		for srv := range before {
			if got := fs.Server(srv).Requests() - before[srv]; got != tc.requests[srv] {
				t.Errorf("%s write: server %d received %d requests, want %d", tc.name, srv, got, tc.requests[srv])
			}
		}
		run(t, clu, func(p *sim.Proc) {
			if got, err := c.ReadAll(p, "f"); err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s write: file reads back other bytes (%v)", tc.name, err)
			}
		})
	}
}

func TestPartialReadArbitraryRanges(t *testing.T) {
	clu, fs := testFS(t)
	data := pattern(1000)
	if _, err := fs.Create("f", 1000, layout.NewRoundRobin(4), CreateOptions{StripSize: 256}); err != nil {
		t.Fatal(err)
	}
	run(t, clu, func(p *sim.Proc) {
		c := fs.NewClient(clu.ComputeID(1))
		if err := c.WriteAll(p, "f", data); err != nil {
			t.Fatal(err)
		}
		for _, r := range [][2]int64{{0, 1}, {255, 2}, {100, 500}, {999, 1}, {0, 1000}, {300, 0}} {
			got, err := c.Read(p, "f", r[0], r[1])
			if err != nil {
				t.Errorf("Read(%d,%d): %v", r[0], r[1], err)
				continue
			}
			if !bytes.Equal(got, data[r[0]:r[0]+r[1]]) {
				t.Errorf("Read(%d,%d) corrupted", r[0], r[1])
			}
		}
		if _, err := c.Read(p, "f", 999, 2); err == nil {
			t.Error("out-of-range read accepted")
		}
	})
}

func TestStripPlacementFollowsLayout(t *testing.T) {
	clu, fs := testFS(t)
	lay := layout.NewRoundRobin(4)
	data := pattern(1024)
	if _, err := fs.Create("f", 1024, lay, CreateOptions{StripSize: 256}); err != nil {
		t.Fatal(err)
	}
	run(t, clu, func(p *sim.Proc) {
		c := fs.NewClient(clu.ComputeID(0))
		if err := c.WriteAll(p, "f", data); err != nil {
			t.Fatal(err)
		}
	})
	for s := int64(0); s < 4; s++ {
		owner := lay.Primary(s)
		for srv := 0; srv < 4; srv++ {
			holds := fs.Server(srv).Holds("f", s)
			if holds != (srv == owner) {
				t.Errorf("server %d holds strip %d = %v, owner is %d", srv, s, holds, owner)
			}
		}
	}
}

func TestReplicatedWritePlacesBoundaryCopies(t *testing.T) {
	clu, fs := testFS(t)
	lay := layout.NewGroupedReplicated(4, 2, 1)
	data := pattern(8 * 64)
	if _, err := fs.Create("f", 8*64, lay, CreateOptions{StripSize: 64}); err != nil {
		t.Fatal(err)
	}
	run(t, clu, func(p *sim.Proc) {
		c := fs.NewClient(clu.ComputeID(0))
		if err := c.WriteAll(p, "f", data); err != nil {
			t.Fatal(err)
		}
	})
	for s := int64(0); s < 8; s++ {
		for hs, i := lay.Holders(s), 0; i < hs.Len(); i++ {
			holder := hs.At(i)
			if !fs.Server(holder).Holds("f", s) {
				t.Errorf("server %d missing copy of strip %d", holder, s)
			}
		}
	}
	// Replica forwarding is server↔server traffic.
	if clu.Traffic.Bytes(metrics.ServerToServer) == 0 {
		t.Error("replica forwarding produced no server↔server traffic")
	}
	// Capacity overhead: every strip is at a group boundary with r=2, so
	// stored bytes are double the file size.
	var stored int64
	for srv := 0; srv < 4; srv++ {
		stored += fs.Server(srv).StoredBytes()
	}
	if stored != 2*8*64 {
		t.Errorf("stored %d bytes, want %d", stored, 2*8*64)
	}
}

func TestReconfigureMigratesAndPreservesContent(t *testing.T) {
	clu, fs := testFS(t)
	data := pattern(16 * 64)
	if _, err := fs.Create("f", 16*64, layout.NewRoundRobin(4), CreateOptions{StripSize: 64}); err != nil {
		t.Fatal(err)
	}
	newLay := layout.NewGroupedReplicated(4, 4, 1)
	run(t, clu, func(p *sim.Proc) {
		c := fs.NewClient(clu.ComputeID(0))
		if err := c.WriteAll(p, "f", data); err != nil {
			t.Fatal(err)
		}
		if err := c.Reconfigure(p, "f", newLay); err != nil {
			t.Fatal(err)
		}
		got, err := c.ReadAll(p, "f")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Error("reconfiguration corrupted data")
		}
	})
	m, _ := fs.Meta("f")
	if m.Layout.Name() != newLay.Name() {
		t.Errorf("layout after reconfig: %s", m.Layout.Name())
	}
	for s := int64(0); s < 16; s++ {
		for srv := 0; srv < 4; srv++ {
			want := newLay.Holders(s).Has(srv)
			if got := fs.Server(srv).Holds("f", s); got != want {
				t.Errorf("strip %d on server %d: holds=%v want=%v", s, srv, got, want)
			}
		}
	}
}

func TestLocalReadAvoidsNetwork(t *testing.T) {
	clu, fs := testFS(t)
	data := pattern(4 * 64)
	if _, err := fs.Create("f", 4*64, layout.NewRoundRobin(4), CreateOptions{StripSize: 64}); err != nil {
		t.Fatal(err)
	}
	run(t, clu, func(p *sim.Proc) {
		c := fs.NewClient(clu.ComputeID(0))
		if err := c.WriteAll(p, "f", data); err != nil {
			t.Fatal(err)
		}
	})
	before := clu.Traffic.NetworkBytes()
	run(t, clu, func(p *sim.Proc) {
		srv := fs.Server(layout.NewRoundRobin(4).Primary(2))
		got, err := srv.LocalRead(p, "f", 2, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data[2*64:3*64]) {
			t.Error("local read returned wrong bytes")
		}
		if _, err := srv.LocalRead(p, "f", 3, 0, 0); err == nil {
			t.Error("local read of a strip held elsewhere succeeded")
		}
	})
	if clu.Traffic.NetworkBytes() != before {
		t.Error("local read moved network bytes")
	}
}

func TestLocalReadSubRange(t *testing.T) {
	clu, fs := testFS(t)
	data := pattern(64)
	if _, err := fs.Create("f", 64, layout.NewRoundRobin(4), CreateOptions{StripSize: 64}); err != nil {
		t.Fatal(err)
	}
	run(t, clu, func(p *sim.Proc) {
		c := fs.NewClient(clu.ComputeID(0))
		if err := c.WriteAll(p, "f", data); err != nil {
			t.Fatal(err)
		}
		srv := fs.Server(0)
		got, err := srv.LocalRead(p, "f", 0, 10, 20)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data[10:20]) {
			t.Error("sub-range read wrong")
		}
		if _, err := srv.LocalRead(p, "f", 0, 20, 10); err == nil {
			t.Error("inverted range accepted")
		}
		if _, err := srv.LocalRead(p, "f", 0, 0, 100); err == nil {
			t.Error("over-long range accepted")
		}
	})
}

func TestReadStripFromRemoteServerChargesServerTraffic(t *testing.T) {
	clu, fs := testFS(t)
	data := pattern(4 * 64)
	if _, err := fs.Create("f", 4*64, layout.NewRoundRobin(4), CreateOptions{StripSize: 64}); err != nil {
		t.Fatal(err)
	}
	run(t, clu, func(p *sim.Proc) {
		c := fs.NewClient(clu.ComputeID(0))
		if err := c.WriteAll(p, "f", data); err != nil {
			t.Fatal(err)
		}
	})
	before := clu.Traffic.Bytes(metrics.ServerToServer)
	run(t, clu, func(p *sim.Proc) {
		// Server 0 fetches strip 1 (owned by server 1), as NAS would.
		got, err := fs.ReadStripFrom(p, clu.StorageID(0), 1, "f", 1, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data[64:128]) {
			t.Error("remote strip fetch returned wrong bytes")
		}
	})
	moved := clu.Traffic.Bytes(metrics.ServerToServer) - before
	if moved < 64 {
		t.Errorf("server↔server traffic %d, want ≥ strip size", moved)
	}
}

func TestWriteSizeMismatchRejected(t *testing.T) {
	clu, fs := testFS(t)
	if _, err := fs.Create("f", 100, layout.NewRoundRobin(4), CreateOptions{}); err != nil {
		t.Fatal(err)
	}
	run(t, clu, func(p *sim.Proc) {
		c := fs.NewClient(clu.ComputeID(0))
		if err := c.WriteAll(p, "f", make([]byte, 99)); err == nil {
			t.Error("short write accepted")
		}
		if err := c.WriteAll(p, "nope", make([]byte, 1)); err == nil {
			t.Error("write to unknown file accepted")
		}
		if _, err := c.ReadAll(p, "nope"); err == nil {
			t.Error("read of unknown file accepted")
		}
	})
}

func TestDeleteDropsDataEverywhere(t *testing.T) {
	clu, fs := testFS(t)
	data := pattern(4 * 64)
	if _, err := fs.Create("f", 4*64, layout.NewRoundRobin(4), CreateOptions{StripSize: 64}); err != nil {
		t.Fatal(err)
	}
	run(t, clu, func(p *sim.Proc) {
		c := fs.NewClient(clu.ComputeID(0))
		if err := c.WriteAll(p, "f", data); err != nil {
			t.Fatal(err)
		}
	})
	fs.Delete("f")
	if _, ok := fs.Meta("f"); ok {
		t.Error("meta survived delete")
	}
	for srv := 0; srv < 4; srv++ {
		if fs.Server(srv).StoredBytes() != 0 {
			t.Errorf("server %d still stores bytes", srv)
		}
		// The file was the last one every server touched: its one-entry
		// lookup cache must not keep answering for it.
		if fs.Server(srv).Holds("f", int64(srv)) {
			t.Errorf("server %d still holds a strip of the deleted file", srv)
		}
	}
}

func TestWriteIsolationFromCallerBuffer(t *testing.T) {
	clu, fs := testFS(t)
	data := pattern(64)
	if _, err := fs.Create("f", 64, layout.NewRoundRobin(4), CreateOptions{StripSize: 64}); err != nil {
		t.Fatal(err)
	}
	run(t, clu, func(p *sim.Proc) {
		c := fs.NewClient(clu.ComputeID(0))
		if err := c.WriteAll(p, "f", data); err != nil {
			t.Fatal(err)
		}
		data[0] ^= 0xFF // mutate the caller's buffer after the write
		got, err := c.ReadAll(p, "f")
		if err != nil {
			t.Fatal(err)
		}
		if got[0] == data[0] {
			t.Error("server aliases the caller's buffer")
		}
	})
}

func TestDeterministicTiming(t *testing.T) {
	elapsed := func() sim.Time {
		clu, fs := testFS(t)
		data := pattern(16 * 64)
		if _, err := fs.Create("f", 16*64, layout.NewGroupedReplicated(4, 2, 1), CreateOptions{StripSize: 64}); err != nil {
			t.Fatal(err)
		}
		run(t, clu, func(p *sim.Proc) {
			c := fs.NewClient(clu.ComputeID(0))
			if err := c.WriteAll(p, "f", data); err != nil {
				t.Fatal(err)
			}
			if _, err := c.ReadAll(p, "f"); err != nil {
				t.Fatal(err)
			}
		})
		return clu.Eng.Now()
	}
	if a, b := elapsed(), elapsed(); a != b {
		t.Errorf("nondeterministic timing: %v vs %v", a, b)
	}
}
