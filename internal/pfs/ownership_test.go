package pfs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/hpcio/das/internal/bufpool"
	"github.com/hpcio/das/internal/cluster"
	"github.com/hpcio/das/internal/fault"
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/sim"
)

// Strip ownership (DESIGN.md §10): client bytes are copied once, on entry
// at the primary; a stored strip is immutable from then on, lent to every
// reader, local or remote, and held by reference by its replica holders.

// TestLentViewOutlivesTheStrip takes a view of a stored strip and then
// does everything the file system can do to that strip — overwrite it,
// drop it, delete the file. Each of them replaces or forgets the stored
// slice; none writes into it, so the view keeps reading the old bytes, and
// so does a band the views were lent to: the band is the strip's third
// borrower, and what it reads is what was stored when the view was taken.
func TestLentViewOutlivesTheStrip(t *testing.T) {
	clu, fs := testFS(t)
	const strip = 64
	if _, err := fs.Create("f", 4*strip, layout.NewRoundRobin(4), CreateOptions{StripSize: strip}); err != nil {
		t.Fatal(err)
	}
	old, fresh := pattern(4*strip), bytes.Repeat([]byte{0xEE}, strip)
	client := fs.NewClient(clu.ComputeID(0))
	run(t, clu, func(p *sim.Proc) {
		if err := client.WriteAll(p, "f", old); err != nil {
			t.Error(err)
			return
		}
		view := func(s int64) []byte {
			chunks, err := fs.Server(int(s)).LocalViewMany(p, "f", []Span{{Strip: s, Lo: 8, Hi: 40}})
			if err != nil {
				t.Error(err)
				return nil
			}
			return chunks[0]
		}
		want := func(s int64) []byte { return old[s*strip+8 : s*strip+40] }

		overwritten, dropped, deleted := view(0), view(1), view(2)
		const elems = strip / grid.ElemSize
		band := grid.NewBandLent(elems, 4*elems, elems, 2*elems, 0, 3*elems)
		defer band.Release()
		for s, v := range [][]byte{overwritten, dropped, deleted} {
			band.Lend(int64(s)*elems+1, v)
		}
		bandReads := func(s int64) bool {
			vals := band.Span(s*elems+1, s*elems+5)
			return bytes.Equal(grid.FloatsToBytes(vals), want(s))
		}
		if cap(overwritten) != len(overwritten) {
			t.Errorf("view has spare capacity %d beyond its %d bytes: an append would write into the store",
				cap(overwritten)-len(overwritten), len(overwritten))
		}

		if err := client.Write(p, "f", 0, fresh); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(overwritten, want(0)) || !bandReads(0) {
			t.Error("view, or the band it was lent to, changed under an overwrite of its strip")
		}
		if now := view(0); !bytes.Equal(now, fresh[8:40]) {
			t.Error("a view taken after the overwrite does not read the new bytes")
		}

		fs.Server(1).Drop("f", 1)
		if !bytes.Equal(dropped, want(1)) || !bandReads(1) {
			t.Error("view, or the band it was lent to, changed under a Drop of its strip")
		}

		fs.Delete("f")
		if !bytes.Equal(deleted, want(2)) || !bandReads(2) {
			t.Error("view, or the band it was lent to, changed under a Delete of its file")
		}
	})
}

// TestClientBufferIsCopiedOnceOnEntry is the other half of the rule: the
// primary copies what a client sends, so the client may scribble over its
// buffer the moment the write returns — the tenants and the scale storm
// reuse theirs — and the replica holders, which keep the primary's stored
// slice by reference, are unaffected by that and by any later write to
// the primary they have not been sent.
func TestClientBufferIsCopiedOnceOnEntry(t *testing.T) {
	clu, fs := testFS(t)
	const strip = 64
	lay := layout.NewGroupedReplicated(4, 2, 1)
	if _, err := fs.Create("f", 8*strip, lay, CreateOptions{StripSize: strip}); err != nil {
		t.Fatal(err)
	}
	var s int64 = -1
	for c := int64(0); c < 8; c++ {
		if lay.Holders(c).Len() > 1 {
			s = c
			break
		}
	}
	if s < 0 {
		t.Fatal("layout places no replicas")
	}
	primary, holder := fs.Server(lay.Primary(s)), fs.Server(lay.Holders(s).At(1))
	stored := func(srv *Server) []byte { return srv.store["f"][s] }

	buf := bytes.Repeat([]byte{0x11}, strip)
	want := bytes.Clone(buf)
	run(t, clu, func(p *sim.Proc) {
		if err := fs.WriteStripTo(p, clu.ComputeID(0), primary.Index(), "f", s, buf, true); err != nil {
			t.Error(err)
			return
		}
		if &stored(primary)[0] == &buf[0] {
			t.Error("the primary stored the client's buffer by reference")
			return
		}
		if &stored(holder)[0] != &stored(primary)[0] {
			t.Error("the replica holder copied the forwarded strip instead of keeping it by reference")
		}
		clear(buf) // the client reuses its buffer
		if !bytes.Equal(stored(primary), want) || !bytes.Equal(stored(holder), want) {
			t.Error("stored strip changed when the client reused its write buffer")
		}

		// A later write the primary does not forward leaves the holder's
		// copy as it was: the primary replaced its slice, it did not
		// write into the one they shared.
		next := bytes.Repeat([]byte{0x22}, strip)
		if err := fs.WriteStripTo(p, clu.ComputeID(0), primary.Index(), "f", s, next, false); err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(stored(primary), next) {
			t.Error("primary does not hold the new bytes")
		}
		if !bytes.Equal(stored(holder), want) {
			t.Error("replica holder's copy changed under an unforwarded write to the primary")
		}
	})
}

// TestReadResultOutlivesTheStrip is the same contract for what leaves a
// server: a ReadStripFrom, ReadSpansFrom or ReadStripFromTask result is
// the holder's window of the stored strip, so one taken before an
// overwrite, a Drop, a Delete or a crash and restart of the holder keeps
// reading the old bytes; the unaligned write that replaces a strip by
// read-modify-write leaves a window of that strip read earlier alone; and
// the ReleaseBuffer shim feeds no pool — with poison on, a Put of any of
// these windows would scribble over the store.
func TestReadResultOutlivesTheStrip(t *testing.T) {
	done := bufpool.Audit()
	defer func() {
		if n := done(); n != 0 {
			t.Errorf("%d pooled buffers outstanding", n)
		}
	}()
	clu, fs := testFS(t)
	const strip = 64
	if _, err := fs.Create("f", 5*strip, layout.NewRoundRobin(4), CreateOptions{StripSize: strip}); err != nil {
		t.Fatal(err)
	}
	old := pattern(5 * strip)
	client := fs.NewClient(clu.ComputeID(0))
	node := clu.ComputeID(1)
	want := func(s int64) []byte { return old[s*strip+8 : s*strip+40] }

	run(t, clu, func(p *sim.Proc) {
		if err := client.WriteAll(p, "f", old); err != nil {
			t.Error(err)
		}
	})
	// Strip 3 is read by a task-based client: its continuation runs inline
	// when the response lands, during the run below.
	var crashed []byte
	fs.ReadStripFromTask(node, 3, "f", 3, 8, 40, func(data []byte, err error) {
		if err != nil {
			t.Error(err)
		}
		crashed = data
	})
	run(t, clu, func(p *sim.Proc) {
		read := func(s int64) []byte {
			data, err := fs.ReadStripFrom(p, node, int(s%4), "f", s, 8, 40)
			if err != nil {
				t.Error(err)
			}
			return data
		}
		overwritten, dropped, modified := read(0), read(1), read(4)
		spans, err := fs.ReadSpansFrom(p, node, 2, "f", []Span{{Strip: 2, Lo: 8, Hi: 40}})
		if err != nil {
			t.Error(err)
			return
		}
		deleted := spans[0]
		if stored := fs.Server(0).store["f"][0]; &overwritten[0] != &stored[8] {
			t.Error("a read response carries a copy of the strip, not the holder's window of it")
		}
		if cap(overwritten) != len(overwritten) || cap(deleted) != len(deleted) {
			t.Error("a read result has spare capacity: an append would write into the store")
		}
		for _, w := range [][]byte{overwritten, dropped, deleted, crashed, modified} {
			ReleaseBuffer(w)
		}

		if err := client.Write(p, "f", 0, bytes.Repeat([]byte{0xEE}, strip)); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(overwritten, want(0)) {
			t.Error("read result changed under an overwrite of its strip")
		}
		fs.Server(1).Drop("f", 1)
		if !bytes.Equal(dropped, want(1)) {
			t.Error("read result changed under a Drop of its strip")
		}
		// Bytes [16, 24) of strip 4 (held by server 0) sit inside the window
		// read above: the read-modify-write must change its own copy.
		if err := client.Write(p, "f", 4*strip+16, bytes.Repeat([]byte{0xDD}, 8)); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(modified, want(4)) {
			t.Error("an unaligned write modified a window of the strip read before it")
		}
		if now := read(4); bytes.Equal(now, want(4)) || !bytes.Equal(now[8:16], bytes.Repeat([]byte{0xDD}, 8)) {
			t.Error("a read after the unaligned write does not see it")
		}
		for _, kind := range []fault.Kind{fault.Crash, fault.Restart} {
			if err := clu.ApplyFault(fault.Event{Kind: kind, Server: 3}); err != nil {
				t.Error(err)
			}
		}
		if !bytes.Equal(crashed, want(3)) {
			t.Error("task-read result changed under a crash and restart of its holder")
		}
		fs.Delete("f")
		if !bytes.Equal(deleted, want(2)) {
			t.Error("batched read result changed under a Delete of its file")
		}
	})
}

// TestLentClientReadOutlivesTheStrips is the contract for the last reader
// to take windows: a client's lending read, assembled into a band the way
// a TS worker does. Each window is the holder's own memory with no spare
// capacity, and the band goes on reading what was stored when the read
// returned while its strips are overwritten, dropped, put through a crash
// and restart of their holder, and deleted — with poison on, so a window
// that reached a pool on the way would show.
func TestLentClientReadOutlivesTheStrips(t *testing.T) {
	done := bufpool.Audit()
	defer func() {
		if n := done(); n != 0 {
			t.Errorf("%d pooled buffers outstanding", n)
		}
	}()
	clu, fs := testFS(t)
	const strip = 64
	const elems = strip / grid.ElemSize
	vals := make([]float64, 4*elems)
	for i := range vals {
		vals[i] = float64(i) + 0.5
	}
	if _, err := fs.Create("f", 4*strip, layout.NewRoundRobin(4), CreateOptions{StripSize: strip}); err != nil {
		t.Fatal(err)
	}
	client := fs.NewClient(clu.ComputeID(0))
	run(t, clu, func(p *sim.Proc) {
		if err := client.WriteAll(p, "f", grid.FloatsToBytes(vals)); err != nil {
			t.Error(err)
			return
		}
		// Elements [3, 29): mid-strip at both ends, as a halo read is.
		band := grid.NewBandLent(elems, 4*elems, elems, 3*elems, 3, 29)
		err := client.ReadLent(p, "f", 3*grid.ElemSize, 26*grid.ElemSize, func(at int64, w []byte) {
			s := at / strip
			if stored := fs.Server(int(s)).store["f"][s]; &w[0] != &stored[at%strip] {
				t.Errorf("the window at %d is a copy, not the holder's stored strip", at)
			}
			if cap(w) != len(w) {
				t.Errorf("the window at %d has spare capacity: an append would write into the store", at)
			}
			band.Lend(at/grid.ElemSize, w)
		})
		if err != nil {
			t.Error(err)
			return
		}
		reads := func(after string) {
			t.Helper()
			for i := int64(3); i < 29; i++ {
				if band.At(i) != vals[i] {
					t.Errorf("after %s the band reads %v at element %d, want %v", after, band.At(i), i, vals[i])
					return
				}
			}
		}
		reads("the read")
		if err := client.Write(p, "f", 0, bytes.Repeat([]byte{0xEE}, strip)); err != nil {
			t.Error(err)
		}
		reads("an overwrite of strip 0")
		fs.Server(1).Drop("f", 1)
		reads("a Drop of strip 1")
		for _, kind := range []fault.Kind{fault.Crash, fault.Restart} {
			if err := clu.ApplyFault(fault.Event{Kind: kind, Server: 2}); err != nil {
				t.Error(err)
			}
		}
		reads("a crash and restart of strip 2's holder")
		fs.Delete("f")
		reads("a Delete of the file")
		band.Release()
	})
}

// The stored-strip seal (seal.go) is the run-time check of the same
// contract: under bufpool.Audit every stored strip is sealed, and
// CheckSeals fails once a reader has written into one.

const sealStrip = 64

// sealRig writes a file of four strips under lay, one a server under round
// robin, and returns the platform. Under the audit every strip is sealed.
func sealRig(t *testing.T, lay layout.Layout) (*cluster.Cluster, *FileSystem, *Client) {
	t.Helper()
	clu, fs := testFS(t)
	if _, err := fs.Create("f", 4*sealStrip, lay, CreateOptions{StripSize: sealStrip}); err != nil {
		t.Fatal(err)
	}
	client := fs.NewClient(clu.ComputeID(0))
	run(t, clu, func(p *sim.Proc) {
		if err := client.WriteAll(p, "f", pattern(4*sealStrip)); err != nil {
			t.Error(err)
		}
	})
	return clu, fs, client
}

// audited switches bufpool.Audit on for the rest of the test.
func audited(t *testing.T) {
	done := bufpool.Audit()
	t.Cleanup(func() { done() })
}

// wantSealBroken asserts that CheckSeals fails naming server srv, file "f"
// and the strip.
func wantSealBroken(t *testing.T, fs *FileSystem, srv int, strip int64) {
	t.Helper()
	want := fmt.Sprintf("server %d: %q strip %d changed", srv, "f", strip)
	if err := fs.CheckSeals(); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("CheckSeals = %v, want an error naming %s", err, want)
	}
}

// wantSealHolds asserts that CheckSeals passes.
func wantSealHolds(t *testing.T, fs *FileSystem, after string) {
	t.Helper()
	if err := fs.CheckSeals(); err != nil {
		t.Errorf("after %s: CheckSeals = %v, want nil", after, err)
	}
}

// localView returns server srv's lent window of a whole strip of "f".
func localView(t *testing.T, p *sim.Proc, fs *FileSystem, srv int, strip int64) []byte {
	t.Helper()
	chunks, err := fs.Server(srv).LocalViewMany(p, "f", []Span{{Strip: strip, Lo: 8, Hi: 40}})
	if err != nil {
		panic(err) // on the engine's process, where t.Fatal may not stop the test
	}
	return chunks[0]
}

// TestSealCatchesWritesIntoLentMemory writes into what each kind of read
// lends — by index, by copy and by a pool Put, which the audit scribbles
// over — and expects the check to name the server, the file and the strip.
func TestSealCatchesWritesIntoLentMemory(t *testing.T) {
	var pool bufpool.Pool[byte]
	for _, tc := range []struct {
		name  string
		strip int64 // strip s sits on server s
		write func(p *sim.Proc, clu *cluster.Cluster, fs *FileSystem, client *Client) error
	}{
		{"a LocalViewMany window", 1, func(p *sim.Proc, _ *cluster.Cluster, fs *FileSystem, _ *Client) error {
			localView(t, p, fs, 1, 1)[3] = 0xFF
			return nil
		}},
		{"a ReadLent callback window", 2, func(p *sim.Proc, _ *cluster.Cluster, _ *FileSystem, client *Client) error {
			return client.ReadLent(p, "f", 2*sealStrip, sealStrip, func(_ int64, w []byte) { w[0] ^= 1 })
		}},
		{"a copy into a ReadStripFrom result", 3, func(p *sim.Proc, clu *cluster.Cluster, fs *FileSystem, _ *Client) error {
			data, err := fs.ReadStripFrom(p, clu.ComputeID(1), 3, "f", 3, 0, 0)
			copy(data, "scribble")
			return err
		}},
		{"a pool Put of a lent window", 0, func(p *sim.Proc, _ *cluster.Cluster, fs *FileSystem, _ *Client) error {
			pool.Put(localView(t, p, fs, 0, 0))
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			audited(t)
			clu, fs, client := sealRig(t, layout.NewRoundRobin(4))
			wantSealHolds(t, fs, "the write")
			run(t, clu, func(p *sim.Proc) {
				if err := tc.write(p, clu, fs, client); err != nil {
					t.Error(err)
				}
			})
			wantSealBroken(t, fs, int(tc.strip), tc.strip)
		})
	}
}

// TestSealFollowsTheStore: an overwrite seals the new strip and lets the old
// slice go; Drop and Delete forget the seal with the strip. A crash and
// restart keeps the store — it models the disk, and only caches and
// pipeline state are purged — so the seal stays with it.
func TestSealFollowsTheStore(t *testing.T) {
	audited(t)
	clu, fs, client := sealRig(t, layout.NewRoundRobin(4))
	run(t, clu, func(p *sim.Proc) {
		old := localView(t, p, fs, 0, 0)
		if err := client.Write(p, "f", 0, bytes.Repeat([]byte{0xEE}, sealStrip)); err != nil {
			t.Error(err)
			return
		}
		old[0] ^= 1
		wantSealHolds(t, fs, "a write into the slice an overwrite replaced")
		fresh := localView(t, p, fs, 0, 0)
		fresh[0] ^= 1
		wantSealBroken(t, fs, 0, 0)
		fresh[0] ^= 1

		dropped := localView(t, p, fs, 1, 1)
		fs.Server(1).Drop("f", 1)
		dropped[0] ^= 1
		wantSealHolds(t, fs, "a write into a dropped strip")

		restarted := localView(t, p, fs, 2, 2)
		for _, kind := range []fault.Kind{fault.Crash, fault.Restart} {
			if err := clu.ApplyFault(fault.Event{Kind: kind, Server: 2}); err != nil {
				t.Error(err)
			}
		}
		restarted[0] ^= 1
		wantSealBroken(t, fs, 2, 2)
		restarted[0] ^= 1

		deleted := localView(t, p, fs, 3, 3)
		fs.Delete("f")
		deleted[0] ^= 1
		wantSealHolds(t, fs, "a write into a deleted file's strip")
		for i := 0; i < 4; i++ {
			if len(fs.Server(i).seals) != 0 {
				t.Errorf("server %d keeps seals of a deleted file", i)
			}
		}
	})
}

// TestSealOfASliceReplicaHoldersShare: the primary and a replica holder
// keep one slice, so a write into it breaks both seals and the check names
// the first holder; once an unforwarded overwrite gives the primary a new
// slice, the holder's seal still covers the one it kept.
func TestSealOfASliceReplicaHoldersShare(t *testing.T) {
	audited(t)
	lay := layout.NewGroupedReplicated(4, 2, 1)
	clu, fs, _ := sealRig(t, lay)
	var s int64 = -1
	for c := int64(0); c < 4; c++ {
		if lay.Holders(c).Len() > 1 {
			s = c
			break
		}
	}
	if s < 0 {
		t.Fatal("layout places no replicas")
	}
	primary, holder := lay.Primary(s), lay.Holders(s).At(1)
	run(t, clu, func(p *sim.Proc) {
		shared := localView(t, p, fs, holder, s)
		if &shared[0] != &localView(t, p, fs, primary, s)[0] {
			t.Error("the replica holder does not share the primary's slice")
			return
		}
		shared[0] ^= 1
		wantSealBroken(t, fs, min(primary, holder), s)
		shared[0] ^= 1

		if err := fs.WriteStripTo(p, clu.ComputeID(0), primary, "f", s, bytes.Repeat([]byte{0x22}, sealStrip), false); err != nil {
			t.Error(err)
			return
		}
		wantSealHolds(t, fs, "an unforwarded overwrite of the primary")
		shared[0] ^= 1
		wantSealBroken(t, fs, holder, s)
	})
}

// TestSealIsOffWithoutTheAudit: strips stored with the audit off are not
// sealed, so a write into one that the audit later sees passes the check.
func TestSealIsOffWithoutTheAudit(t *testing.T) {
	clu, fs, _ := sealRig(t, layout.NewRoundRobin(4))
	for i := 0; i < 4; i++ {
		if fs.Server(i).seals != nil {
			t.Errorf("server %d sealed strips with the audit off", i)
		}
	}
	audited(t)
	run(t, clu, func(p *sim.Proc) { localView(t, p, fs, 0, 0)[0] ^= 1 })
	wantSealHolds(t, fs, "a write into a strip stored with the audit off")
}
